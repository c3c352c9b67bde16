//! Execution backends: one [`DeploymentSpec`], two places to run it.

use crate::calibration;
use crate::deploy::report::{ExactnessDigest, NodeStat, RunReport, ShardStat};
use crate::deploy::{DeployError, DeploymentSpec};
use crate::engine::block::{BuildingBlock, EpochSource};
use crate::engine::source::SourceConfig;
use crate::live::session::LiveSession;
use crate::planner::PlannedQuery;

/// Executes validated deployment specs.
pub trait ExecBackend {
    /// Backend name, matching [`RunReport::backend`].
    fn name(&self) -> &'static str;

    /// Runs `epochs` epochs of the spec and reports. Each call starts a
    /// fresh run.
    fn run(&mut self, spec: &DeploymentSpec, epochs: u64) -> Result<RunReport, DeployError>;
}

/// Builds the emulated building block a spec describes.
pub(crate) fn build_block(
    spec: &DeploymentSpec,
) -> Result<(PlannedQuery, BuildingBlock), DeployError> {
    let planned = spec.planned.clone();
    let costs = spec.workload.costs();
    let cfgs: Vec<SourceConfig> = (0..spec.sources)
        .map(|i| {
            let mut c = SourceConfig::new(i + 1, spec.cpu_budget, spec.strategy);
            c.seed = spec.seed.wrapping_add(u64::from(i));
            c
        })
        .collect();
    let generators: Vec<Box<dyn EpochSource>> = (0..spec.sources)
        .map(|i| spec.workload.generator(i, spec.sources))
        .collect();
    let mut block = BuildingBlock::new(&planned, &costs, cfgs, generators, spec.network);
    if let Some(factors) = &spec.fixed_load_factors {
        for i in 0..block.source_count() {
            block.source_mut(i).set_load_factors(factors);
        }
    }
    block.set_collect_results(spec.collect_results);
    Ok((planned, block))
}

/// The deterministic calibrated emulator (`engine::block`): models CPU
/// budgets, uplink bandwidth, latency bounds, and sheds like a real agent —
/// the backend behind every figure reproduction.
#[derive(Default)]
pub struct EmulatedBackend {
    prepared: Option<(PlannedQuery, BuildingBlock)>,
}

impl EmulatedBackend {
    /// Builds the block without running (stepping / fault injection).
    pub fn prepare(&mut self, spec: &DeploymentSpec) -> Result<(), DeployError> {
        self.prepared = Some(build_block(spec)?);
        Ok(())
    }

    /// The underlying block, once prepared.
    pub fn block_mut(&mut self) -> Option<&mut BuildingBlock> {
        self.prepared.as_mut().map(|(_, b)| b)
    }

    /// Advances one epoch, applying any [`DeploymentSpec::events`] scheduled
    /// for it first.
    pub fn step(&mut self, spec: &DeploymentSpec) {
        let (_, block) = self.prepared.as_mut().expect("prepare before step");
        let epoch = block.epoch();
        for ev in spec.events.iter().filter(|e| e.epoch == epoch) {
            if let Some(cpu) = ev.cpu_budget {
                for i in 0..block.source_count() {
                    block.source_mut(i).set_cpu_budget(cpu);
                }
            }
            if let Some(size) = ev.table_size {
                block.swap_join_tables(size);
            }
        }
        block.run_epoch();
    }

    /// Builds the report for the current block state.
    pub fn report(&mut self, spec: &DeploymentSpec) -> RunReport {
        let (planned, block) = self.prepared.as_mut().expect("prepare before report");
        if spec.collect_results {
            block.finalize_results();
        }
        let secs = block.measured_secs();
        let metrics = block.metrics();
        let mut report = RunReport::skeleton("emulated", spec.workload.name(), spec.strategy);
        report.epochs = block.epoch();
        report.throughput_mbps = block.aggregate_throughput_mbps();
        report.network_mbps = block.aggregate_network_mbps();
        report.state_mbps = metrics.iter().map(|m| m.state_mbps(secs)).sum();
        report.input_mbps = metrics.iter().map(|m| m.input_mbps(secs)).sum();
        report.latency_median_s = metrics.first().and_then(|m| m.latency.median());
        report.latency_max_s = metrics.first().and_then(|m| m.latency.max());
        report.drained_records = metrics.iter().map(|m| m.drained_records).sum();
        report.drained_bytes = metrics
            .iter()
            .map(|m| (m.net_bytes - m.state_bytes).max(0.0))
            .sum();
        let sp = block.sp();
        report.results_emitted = sp.results_emitted();
        report.exactness = sp.collected_results().map(ExactnessDigest::of_rows);
        report.trace = block.source(0).runtime().trace().to_vec();
        report.episodes = block.source(0).runtime().episodes().to_vec();
        report.load_factors = block.source(0).load_factors();
        report.overhead_core_frac = {
            let rt = block.source(0).runtime();
            rt.overhead_us() / (rt.trace().len().max(1) as f64 * 1e6)
        };
        report.deployed_chain = planned.plan.display_chain();
        report.source_ops = planned.source_ops;
        // One SP: one shard row and one node row, and nothing crosses a link.
        let (drained_records, usage_us) = (sp.drained_records(), sp.suffix_usage_us());
        report.shard_stats = vec![ShardStat {
            drained_records,
            usage_us,
            wire_bytes_out: 0,
            completeness: 1.0,
        }];
        report.node_stats = vec![NodeStat {
            drained_records,
            usage_us,
            wire_bytes_out: 0,
        }];
        report
    }
}

impl ExecBackend for EmulatedBackend {
    fn name(&self) -> &'static str {
        "emulated"
    }

    fn run(&mut self, spec: &DeploymentSpec, epochs: u64) -> Result<RunReport, DeployError> {
        // A fresh block every call: a finalized (windows flushed) block must
        // not leak into a second run.
        self.prepare(spec)?;
        for _ in 0..epochs {
            self.step(spec);
        }
        Ok(self.report(spec))
    }
}

/// Threaded execution over real channels (`live::session`), driving the
/// Jarvis runtime state machine per epoch. Execution is lossless — its
/// purpose is proving exactness and concurrency-safety, not modelling
/// throughput — so the reported throughput equals the input rate and
/// latency fields stay empty.
#[derive(Default)]
pub struct LiveBackend {}

impl ExecBackend for LiveBackend {
    fn name(&self) -> &'static str {
        "live"
    }

    fn run(&mut self, spec: &DeploymentSpec, epochs: u64) -> Result<RunReport, DeployError> {
        let mut session = LiveSession::new(spec)?;
        session.run_epochs(epochs)?;
        let mut report = RunReport::skeleton("live", spec.workload.name(), spec.strategy);
        report.epochs = session.epoch();
        report.rt_workers = session.rt_workers();
        report.deployed_chain = session.planned().plan.display_chain();
        report.source_ops = session.planned().source_ops;
        report.sp_shards = session.n_shards() as u64;
        report.sp_nodes = session.n_nodes() as u64;
        report.trace = session.runtime(0).trace().to_vec();
        report.episodes = session.runtime(0).episodes().to_vec();
        report.load_factors = session.load_factors(0);
        report.overhead_core_frac = {
            let rt = session.runtime(0);
            rt.overhead_us() / (rt.trace().len().max(1) as f64 * 1e6)
        };
        let outcome = session.try_finish()?;
        let secs = (outcome.epochs as f64 * calibration::EPOCH_SECS).max(f64::MIN_POSITIVE);
        report.input_mbps = outcome.input_bytes * 8.0 / secs / calibration::MBPS;
        // Live execution is lossless: every input record completes.
        report.throughput_mbps = report.input_mbps;
        report.network_mbps = outcome.drained_bytes * 8.0 / secs / calibration::MBPS;
        report.drained_records = outcome.drained_records;
        report.drained_bytes = outcome.drained_bytes;
        report.state_deltas = outcome.state_deltas;
        report.results_emitted = outcome.results.len() as u64;
        report.shard_stats = outcome
            .shard_drained_records
            .iter()
            .zip(&outcome.shard_usage_us)
            .zip(
                outcome
                    .shard_wire_bytes
                    .iter()
                    .zip(&outcome.shard_completeness),
            )
            .map(
                |((&drained_records, &usage_us), (&wire_bytes_out, &completeness))| ShardStat {
                    drained_records,
                    usage_us,
                    wire_bytes_out,
                    completeness,
                },
            )
            .collect();
        report.node_stats = outcome
            .node_drained_records
            .iter()
            .zip(&outcome.node_usage_us)
            .zip(&outcome.node_wire_bytes)
            .map(
                |((&drained_records, &usage_us), &wire_bytes_out)| NodeStat {
                    drained_records,
                    usage_us,
                    wire_bytes_out,
                },
            )
            .collect();
        report.incidents = outcome.incidents;
        report.replay_bytes = outcome.replay_bytes;
        report.heartbeats_sent = outcome.heartbeats_sent;
        if spec.collect_results {
            report.exactness = Some(ExactnessDigest::of_rows(&outcome.results));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Scale;
    use crate::deploy::{BackendKind, Deployment};
    use crate::experiment::ScenarioSpec;
    use crate::strategy::StrategyKind;

    #[test]
    fn emulated_backend_matches_the_listing_1_flow() {
        let report = Deployment::builder()
            .workload(ScenarioSpec::pingmesh_s2s(Scale::X10))
            .strategy(StrategyKind::Jarvis)
            .cpu_budget(0.6)
            .backend(BackendKind::Emulated)
            .build()
            .unwrap()
            .run(40)
            .unwrap();
        assert_eq!(report.backend, "emulated");
        assert_eq!(report.deployed_chain, "W -> F -> G+R");
        assert_eq!(report.source_ops, 3);
        assert!(report.throughput_mbps > 0.0);
        assert!(report.results_emitted > 0);
    }

    #[test]
    fn live_backend_runs_the_same_spec() {
        let report = Deployment::builder()
            .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
            .strategy(StrategyKind::Jarvis)
            .cpu_budget(0.8)
            .backend(BackendKind::Live)
            .collect_results(true)
            .build()
            .unwrap()
            .run(10)
            .unwrap();
        assert_eq!(report.backend, "live");
        assert!(report.results_emitted > 0);
        assert!(report.exactness.is_some());
        assert!(report.input_mbps > 0.0);
    }

    #[test]
    fn emulated_supports_stepping_and_fault_injection() {
        let spec = Deployment::builder()
            .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
            .strategy(StrategyKind::AllSrc)
            .cpu_budget(1.0)
            .spec()
            .unwrap();
        let mut be = EmulatedBackend::default();
        be.prepare(&spec).unwrap();
        for _ in 0..5 {
            be.step(&spec);
        }
        let block = be.block_mut().unwrap();
        assert_eq!(block.epoch(), 5);
        let ckpt = block.fail_source(0);
        assert!(block.is_failed(0));
        block.recover_source(0, &ckpt);
        assert!(!block.is_failed(0));
    }

    #[test]
    fn a_table_event_swaps_the_joins_of_a_source_prefix_shorter_than_the_plan() {
        // T2TProbe with its second join marked parallel: R-4 ends the source
        // prefix in front of it, so the sources run W, F and one join of the
        // six operators. The swap walks the source's operators, not the plan.
        use crate::deploy::CustomWorkload;
        use crate::experiment::ResourceEvent;
        use streamkit::ops::OpKind;

        let t2t = ScenarioSpec::pingmesh_t2t(Scale::X1, 500);
        let mut plan = t2t.logical_plan();
        plan.parallel[3] = 4;
        let workload = CustomWorkload::new(
            "t2t-short-prefix",
            plan,
            t2t.costs(),
            vec![t2t.generator(0, 1)],
        );
        let spec = Deployment::builder()
            .workload(workload)
            .strategy(StrategyKind::AllSrc)
            .cpu_budget(1.0)
            .events(&[ResourceEvent {
                epoch: 2,
                cpu_budget: None,
                table_size: Some(5000),
            }])
            .spec()
            .unwrap();
        assert_eq!(spec.planned.source_ops, 3);
        let mut be = EmulatedBackend::default();
        be.prepare(&spec).unwrap();
        let join_sizes = |be: &mut EmulatedBackend| -> Vec<usize> {
            be.block_mut()
                .unwrap()
                .source_mut(0)
                .ops_mut()
                .filter(|op| op.kind() == OpKind::Join)
                .map(|op| op.state_size())
                .collect()
        };
        let table_len = |size| telemetry::queries::t2t_tables(size, 40, &[1]).0.len();
        be.step(&spec);
        be.step(&spec);
        assert_eq!(join_sizes(&mut be), vec![table_len(500)]);
        be.step(&spec);
        assert_eq!(join_sizes(&mut be), vec![table_len(5000)]);
    }
}
