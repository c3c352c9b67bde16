//! Multiple queries on one data source node (paper §VI-F, Fig. 11).
//!
//! Each query gets a dedicated Jarvis runtime; the node's compute is split
//! with a max-min fair allocation (§IV-E cites \[46\]) minus a fixed per-query
//! engine overhead, and the node's uplink is shared fairly across queries.
//! Since the fair share is an equal static split for identical queries, the
//! experiment reuses [`BuildingBlock`] with one engine per query instance.

use crate::calibration;
use crate::engine::block::{BuildingBlock, EpochSource, NetworkModel};
use crate::engine::source::SourceConfig;
use crate::experiment::ScenarioSpec;
use crate::strategy::StrategyKind;

/// One point of a Fig. 11 panel.
#[derive(Debug, Clone)]
pub struct MultiQueryPoint {
    /// Number of concurrent query instances.
    pub queries: u32,
    /// Aggregate on-time throughput, paper-Mbps.
    pub throughput_mbps: f64,
    /// Per-query CPU share after overhead, cores.
    pub per_query_cores: f64,
}

/// Fair per-query compute share on a node with `cores`, running `k` queries
/// with fixed per-query engine overhead.
pub fn fair_share_cores(cores: f64, k: u32) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let usable = cores - f64::from(k) * calibration::PER_QUERY_OVERHEAD_CORES;
    (usable / f64::from(k)).max(0.0)
}

/// Runs `k` instances of the workload on one `cores`-core node and returns
/// the aggregate throughput. `per_query_demand` sets each instance's fixed
/// load factors (the paper configures instances "to use a fixed amount of
/// CPU resource (via fixed load factors)"); `None` lets Jarvis adapt.
pub fn run_multi_query(
    spec: &ScenarioSpec,
    cores: f64,
    k: u32,
    epochs: u64,
    fixed_load_factors: Option<&[f64]>,
) -> MultiQueryPoint {
    let per_query = fair_share_cores(cores, k);
    let planned = spec.plan();
    let costs = spec.costs();
    let strategy = if fixed_load_factors.is_some() {
        StrategyKind::AllSrc // placeholder; load factors are overridden below
    } else {
        StrategyKind::Jarvis
    };
    let cfgs: Vec<SourceConfig> = (0..k)
        .map(|i| {
            let mut c = SourceConfig::new(i + 1, per_query, strategy);
            c.seed = spec.seed.wrapping_add(u64::from(i) * 131);
            c
        })
        .collect();
    let generators: Vec<Box<dyn EpochSource>> =
        (0..k).map(|i| spec.generator(i, k.max(1))).collect();
    let mut block = BuildingBlock::new(
        &planned,
        &costs,
        cfgs,
        generators,
        NetworkModel::Shared {
            total_bps: calibration::node_uplink_bps(),
        },
    );
    if let Some(p) = fixed_load_factors {
        for i in 0..block.source_count() {
            block.source_mut(i).set_load_factors(p);
        }
    }
    block.run_epochs(epochs);
    MultiQueryPoint {
        queries: k,
        throughput_mbps: block.aggregate_throughput_mbps(),
        per_query_cores: per_query,
    }
}

/// Sweeps query counts for one panel of Fig. 11.
pub fn multi_query_sweep(
    spec: &ScenarioSpec,
    cores: f64,
    query_counts: &[u32],
    epochs: u64,
) -> Vec<MultiQueryPoint> {
    query_counts
        .iter()
        .map(|&k| run_multi_query(spec, cores, k, epochs, None))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Scale;

    #[test]
    fn fair_share_accounts_for_overhead() {
        let one = fair_share_cores(1.0, 1);
        assert!((one - (1.0 - 0.015)).abs() < 1e-12);
        let fifteen = fair_share_cores(1.0, 15);
        assert!(fifteen > 0.0 && fifteen < 0.06);
        assert_eq!(fair_share_cores(1.0, 80), 0.0, "overhead swallows the node");
    }

    #[test]
    fn throughput_saturates_with_query_count() {
        let spec = ScenarioSpec::pingmesh_s2s(Scale::X10);
        let p1 = run_multi_query(&spec, 1.0, 1, 50, None);
        let p3 = run_multi_query(&spec, 1.0, 3, 50, None);
        // One query at 10x fits in a core; three cannot triple throughput on
        // one core.
        assert!(p1.throughput_mbps > 20.0, "p1 = {p1:?}");
        assert!(
            p3.throughput_mbps < 2.5 * p1.throughput_mbps,
            "p1 = {p1:?}, p3 = {p3:?}"
        );
    }

    #[test]
    fn two_cores_support_more_queries_than_one() {
        let spec = ScenarioSpec::pingmesh_s2s(Scale::X5);
        let one_core = run_multi_query(&spec, 1.0, 4, 50, None);
        let two_cores = run_multi_query(&spec, 2.0, 4, 50, None);
        assert!(
            two_cores.throughput_mbps >= one_core.throughput_mbps,
            "one={one_core:?} two={two_cores:?}"
        );
    }
}
