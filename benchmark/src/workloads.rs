//! The four workloads. Each is a fixed `LiveSession` configuration whose only
//! free inputs are the seed and the number of measured epochs; everything a
//! later issue refers to by name (`s2s_allsp_2node`, …) is defined here.

use std::sync::Arc;

use jarvis_core::calibration::Scale;
use jarvis_core::deploy::{
    BackendKind, CustomWorkload, Deployment, DeploymentBuilder, SourceAdapter, TransportKind,
};
use jarvis_core::engine::block::EpochSource;
use jarvis_core::experiment::{ResourceEvent, ScenarioSpec};
use jarvis_core::strategy::StrategyKind;
use telemetry::pingmesh::{PingmeshConfig, PingmeshGenerator};

/// Warm-up epochs before measurement: one full 10-epoch query window, which
/// also covers the first Profile/Adapt episode of the adaptive workloads.
pub const WARMUP_EPOCHS: u64 = 10;

/// Every paper query aggregates over a 10-epoch tumbling window.
pub const WINDOW_EPOCHS: u64 = 10;

/// The seed `golden.json` is blessed for.
pub const DEFAULT_SEED: u64 = 17;

/// Static-table size of the fan-in workload's ToR joins.
const T2T_TABLE_SIZE: u32 = 5000;

/// Sources of the fan-in workload whose rows survive the first join (1.6 % of
/// 2048). With a single survivor the trickle past the keyed boundary is a few
/// hundred rows per epoch and `sp_wire_bytes_per_row` swings by a percent
/// between seeds; with 32 it is steady to a tenth of that, while 98 % of the
/// rows still die before the boundary.
const T2T_JOINED_SOURCES: u32 = 32;

/// Checkpoint cadence of the TCP workload, epochs: every fifth epoch ships a
/// cumulative snapshot.
pub const CHECKPOINT_INTERVAL: u64 = 5;

/// Token the in-process `jarvis-node` thread registers with.
pub const NODE_TOKEN: &str = "jarvis-benchmark";

/// Which of the four configurations a [`Workload`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    S2sAllSp2Node,
    T2tAllSpFanin,
    LogJarvisAdapt,
    S2sJarvisTcp,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Why the workload exists (one line; echoed into `BENCHMARK.json`).
    pub why: &'static str,
    pub sources: u32,
    pub rt_workers: u32,
    pub sp_shards: u32,
    pub sp_nodes: u32,
    /// Measured epochs per 10 s of `--seconds`, read off this 2-core box so
    /// the measured phase lasts about `--seconds`. A fixed table, never a
    /// clock: the same `--seconds` is the same work on every commit.
    epochs_per_10s: u64,
}

pub const ALL: [Workload; 4] = [
    Workload {
        kind: Kind::S2sAllSp2Node,
        name: "s2s_allsp_2node",
        why: "every row crosses the keyed boundary and half of them a node link: final-role \
              group-by, shard_by_key, netwire batch codec and channel hops do the work; the \
              only 2-worker workload",
        sources: 8,
        rt_workers: 2,
        sp_shards: 4,
        sp_nodes: 2,
        epochs_per_10s: 80,
    },
    Workload {
        kind: Kind::T2tAllSpFanin,
        name: "t2t_allsp_fanin",
        why: "2048 small sources whose rows mostly die in filter and joins: serial generation, \
              task spawns, small messages and per-batch fixed costs dominate; group-by, shard \
              and wire changes must not move it",
        sources: 2048,
        rt_workers: 1,
        sp_shards: 2,
        sp_nodes: 2,
        epochs_per_10s: 100,
    },
    Workload {
        kind: Kind::LogJarvisAdapt,
        name: "log_jarvis_adapt",
        why: "text parsing, persistent dictionaries, fractional load factors with partial \
              aggregation and merge, and two StepWise-Adapt episodes driven by budget events; \
              slow convergence shows as uplink bytes",
        sources: 4,
        rt_workers: 1,
        sp_shards: 2,
        sp_nodes: 2,
        epochs_per_10s: 50,
    },
    Workload {
        kind: Kind::S2sJarvisTcp,
        name: "s2s_jarvis_tcp",
        why: "the only workload on engine::transport, live::remote, node and checkpointing, \
              with ShardState beside ShardBatch on a real loopback socket",
        sources: 4,
        rt_workers: 1,
        sp_shards: 4,
        sp_nodes: 1,
        epochs_per_10s: 40,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Measured epochs for a `--seconds` budget: the fixed table scaled, in
    /// whole windows, never fewer than one.
    pub fn measured_epochs(&self, seconds: u64) -> u64 {
        (self.epochs_per_10s * seconds / 10 / WINDOW_EPOCHS).max(1) * WINDOW_EPOCHS
    }

    /// Whether the SP tier sits behind a real socket.
    pub fn is_tcp(&self) -> bool {
        self.kind == Kind::S2sJarvisTcp
    }

    /// The workload's query, costs and per-source generators at `seed`. A
    /// fresh adapter per use: the fan-in workload hands each generator out
    /// once.
    pub fn adapter(&self, seed: u64) -> Arc<dyn SourceAdapter> {
        match self.kind {
            Kind::S2sAllSp2Node | Kind::S2sJarvisTcp => Arc::new(ScenarioSpec {
                seed,
                ..ScenarioSpec::pingmesh_s2s(Scale::X10)
            }),
            Kind::LogJarvisAdapt => Arc::new(ScenarioSpec {
                seed,
                ..ScenarioSpec::log_analytics(Scale::X5)
            }),
            Kind::T2tAllSpFanin => {
                // The T2TProbe query and costs over many small sources: 400
                // rows per source and epoch instead of 4000. The ToR tables
                // know the first `T2T_JOINED_SOURCES` sources, so the rows of
                // all the others die in the first join.
                let known: Vec<u32> = (1..=T2T_JOINED_SOURCES).collect();
                let (src, dst) = telemetry::queries::t2t_tables(T2T_TABLE_SIZE, 40, &known);
                let generators = (0..self.sources)
                    .map(|i| {
                        Box::new(PingmeshGenerator::new(PingmeshConfig {
                            src_ip: i + 1,
                            scale: 0.1,
                            peer_ip_space: T2T_TABLE_SIZE,
                            seed,
                            ..Default::default()
                        })) as Box<dyn EpochSource>
                    })
                    .collect();
                Arc::new(CustomWorkload::new(
                    "T2TProbe-fanin",
                    telemetry::queries::t2t_probe(src, dst),
                    ScenarioSpec::pingmesh_t2t(Scale::X1, T2T_TABLE_SIZE).costs(),
                    generators,
                ))
            }
        }
    }

    /// The deployment for `seed` and `measured` epochs; `listen` is the
    /// coordinator endpoint of the TCP workload.
    pub fn builder(&self, seed: u64, measured: u64, listen: Option<&str>) -> DeploymentBuilder {
        let b = Deployment::builder()
            .workload_arc(self.adapter(seed))
            .backend(BackendKind::Live)
            .seed(seed)
            .sources(self.sources)
            .rt_workers(self.rt_workers)
            .sp_shards(self.sp_shards)
            .sp_nodes(self.sp_nodes);
        match self.kind {
            Kind::S2sAllSp2Node | Kind::T2tAllSpFanin => b.strategy(StrategyKind::AllSp),
            Kind::LogJarvisAdapt => b
                .strategy(StrategyKind::Jarvis)
                .cpu_budget(0.10)
                .events(&budget_events(measured)),
            Kind::S2sJarvisTcp => b
                .strategy(StrategyKind::Jarvis)
                .cpu_budget(0.5)
                .transport(TransportKind::Tcp)
                .listen_addr(listen.expect("the TCP workload needs a listen endpoint"))
                .auth_token(NODE_TOKEN)
                .checkpoint_interval(CHECKPOINT_INTERVAL),
        }
    }
}

/// The adaptive workload's budget schedule: halved at 3/10 of the measured
/// epochs, restored at 6/10.
pub fn budget_events(measured: u64) -> [ResourceEvent; 2] {
    let at = |tenths: u64, cpu: f64| ResourceEvent {
        epoch: WARMUP_EPOCHS + measured * tenths / 10,
        cpu_budget: Some(cpu),
        table_size: None,
    };
    [at(3, 0.05), at(6, 0.10)]
}

/// Whether absolute epoch `epoch` (warm-up included) is the first of a new
/// query window. The session never closes a window before `try_finish`, so
/// what sets these epochs apart is that every group of the new window is
/// inserted rather than updated — one epoch in ten is dearer, and a `p90`
/// sits on the cliff between the two populations.
pub fn is_window_boundary(epoch: u64) -> bool {
    epoch.is_multiple_of(WINDOW_EPOCHS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_epochs_are_whole_windows_and_scale_with_seconds() {
        for w in ALL {
            for seconds in 1..=60 {
                let n = w.measured_epochs(seconds);
                assert!(
                    n >= WINDOW_EPOCHS && n % WINDOW_EPOCHS == 0,
                    "{} {seconds}",
                    w.name
                );
            }
            assert_eq!(w.measured_epochs(10), w.epochs_per_10s);
            assert_eq!(w.measured_epochs(20), 2 * w.epochs_per_10s);
        }
    }

    #[test]
    fn window_boundary_epochs_are_exactly_every_tenth_measured_epoch() {
        for w in ALL {
            let n = w.measured_epochs(10);
            let boundary: Vec<u64> = (0..n)
                .filter(|i| is_window_boundary(WARMUP_EPOCHS + i))
                .collect();
            assert_eq!(boundary.len() as u64, n / WINDOW_EPOCHS);
            assert!(boundary.iter().all(|i| i % WINDOW_EPOCHS == 0));
        }
    }

    #[test]
    fn budget_events_fall_inside_the_measured_phase() {
        let [drop, restore] = budget_events(100);
        assert_eq!((drop.epoch, restore.epoch), (40, 70));
        let [drop, restore] = budget_events(10);
        assert_eq!((drop.epoch, restore.epoch), (13, 16));
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in ALL {
            assert_eq!(by_name(w.name).map(|x| x.kind), Some(w.kind));
        }
        assert!(by_name("nope").is_none());
    }
}
