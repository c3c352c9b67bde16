//! The core building block (paper Fig. 4b): N data sources, an uplink
//! network, and one stream processor ([`SpEngine`]), advanced in lock-step
//! epochs. Scaling the SP out over shards and nodes is the live tier's
//! concern, not the emulator's.

use simnet::link::{Delivered, FairLink, Link};
use simnet::VirtualClock;
use streamkit::batch::Batch;
use streamkit::physical::CostProfile;
use streamkit::time::Ts;

use crate::calibration;
use crate::engine::metrics::RunMetrics;
use crate::engine::source::{SourceConfig, SourceEngine};
use crate::engine::sp::SpEngine;
use crate::engine::NetPayload;
use crate::experiment::{T2tTables, DEFAULT_WARMUP_EPOCHS};
use crate::planner::PlannedQuery;

/// A per-epoch batch generator (one per source). Sources produce columnar
/// [`Batch`]es directly — the dataflow is batch-first end to end.
pub trait EpochSource: Send {
    /// Produces the rows arriving in `[epoch_start, epoch_start + secs)` as
    /// one columnar batch.
    fn generate_epoch_batch(&mut self, epoch_start: Ts, epoch_secs: f64) -> Batch;
}

impl EpochSource for telemetry::pingmesh::PingmeshGenerator {
    fn generate_epoch_batch(&mut self, epoch_start: Ts, epoch_secs: f64) -> Batch {
        telemetry::pingmesh::PingmeshGenerator::generate_epoch_batch(self, epoch_start, epoch_secs)
    }
}

impl EpochSource for telemetry::loganalytics::LogGenerator {
    fn generate_epoch_batch(&mut self, epoch_start: Ts, epoch_secs: f64) -> Batch {
        telemetry::loganalytics::LogGenerator::generate_epoch_batch(self, epoch_start, epoch_secs)
    }
}

impl EpochSource for telemetry::trace::ReplayGenerator {
    fn generate_epoch_batch(&mut self, epoch_start: Ts, epoch_secs: f64) -> Batch {
        telemetry::trace::ReplayGenerator::generate_epoch_batch(self, epoch_start, epoch_secs)
    }
}

/// Uplink topology between the sources and the SP.
#[derive(Debug, Clone, Copy)]
pub enum NetworkModel {
    /// A dedicated per-source, per-query link (Fig. 7/9/11 setting:
    /// 2.048 Mbps × 10).
    PerSource {
        /// Capacity per source, bits/second.
        bps: f64,
    },
    /// One shared SP-ingress pipe, max-min fair across sources (Fig. 10
    /// setting: 10 Gbps / 20 queries).
    Shared {
        /// Total capacity, bits/second.
        total_bps: f64,
    },
}

enum Net {
    PerSource(Vec<Link<NetPayload>>),
    Shared(FairLink<NetPayload>),
}

/// Record payloads are sheddable when the uplink buffer fills; state deltas
/// are not (they are small and carry accumulated aggregates).
fn evictable(p: &NetPayload) -> bool {
    matches!(p, NetPayload::Records { .. })
}

impl Net {
    /// Enqueues; returns input-equivalent *records* evicted by buffer caps.
    fn enqueue(&mut self, flow: usize, payload: NetPayload, bytes: usize, now: f64) -> usize {
        let evicted = match self {
            Net::PerSource(links) => links[flow].enqueue_bounded(payload, bytes, now, evictable),
            Net::Shared(link) => link.enqueue_bounded(flow, payload, bytes, now, evictable),
        };
        evicted.iter().map(|(p, _)| p.record_count()).sum()
    }

    fn transmit(&mut self, now: f64, secs: f64) -> Vec<(usize, Delivered<NetPayload>)> {
        match self {
            Net::PerSource(links) => {
                let mut out = Vec::new();
                for (i, link) in links.iter_mut().enumerate() {
                    for d in link.transmit(now, secs) {
                        out.push((i, d));
                    }
                }
                out
            }
            Net::Shared(link) => link.transmit(now, secs),
        }
    }

    fn backlog_bytes(&self) -> f64 {
        match self {
            Net::PerSource(links) => links.iter().map(Link::backlog_bytes).sum(),
            Net::Shared(link) => link.total_backlog_bytes(),
        }
    }
}

/// N sources + network + one SP, advanced epoch by epoch.
pub struct BuildingBlock {
    clock: VirtualClock,
    sources: Vec<SourceEngine>,
    generators: Vec<Box<dyn EpochSource>>,
    net: Net,
    sp: SpEngine,
    /// Per-source metrics (measurement window).
    metrics: Vec<RunMetrics>,
    /// Epochs measured so far, past the [`DEFAULT_WARMUP_EPOCHS`] warm-up.
    measured_epochs: u64,
    /// Sources currently failed (not generating or processing).
    failed: Vec<bool>,
}

impl BuildingBlock {
    /// Builds a block running `planned` on every source, its uplinks shaped
    /// by `network`.
    pub fn new(
        planned: &PlannedQuery,
        costs: &CostProfile,
        source_cfgs: Vec<SourceConfig>,
        generators: Vec<Box<dyn EpochSource>>,
        network: NetworkModel,
    ) -> BuildingBlock {
        assert_eq!(
            source_cfgs.len(),
            generators.len(),
            "one generator per source"
        );
        let n = source_cfgs.len();
        let sources: Vec<SourceEngine> = source_cfgs
            .into_iter()
            .map(|sc| SourceEngine::new(planned, costs, sc))
            .collect();
        // Finite uplink buffers sized so a record admitted to the buffer can
        // still complete within the latency bound: the bound minus headroom
        // for epoch batching and SP-side processing. Stale records beyond
        // that are shed (drop-oldest), as a real agent's bounded socket
        // buffers would.
        let buffer_secs =
            (calibration::LATENCY_BOUND_SECS - 2.0 * calibration::EPOCH_SECS).max(0.5);
        let net = match network {
            NetworkModel::PerSource { bps } => {
                let cap = buffer_secs * bps / 8.0;
                Net::PerSource(
                    (0..n)
                        .map(|_| {
                            let mut link = Link::new(bps);
                            link.set_backlog_cap_bytes(Some(cap));
                            link
                        })
                        .collect(),
                )
            }
            NetworkModel::Shared { total_bps } => {
                let mut link = FairLink::new(total_bps, n);
                let share = total_bps / n.max(1) as f64;
                link.set_flow_backlog_cap_bytes(Some(buffer_secs * share / 8.0));
                Net::Shared(link)
            }
        };
        BuildingBlock {
            clock: VirtualClock::new(calibration::EPOCH_SECS),
            sources,
            generators,
            net,
            sp: SpEngine::new(planned, costs, n),
            metrics: (0..n).map(|_| RunMetrics::default()).collect(),
            measured_epochs: 0,
            failed: vec![false; n],
        }
    }

    /// Fails source `i` (paper §IV-E): captures a checkpoint of its
    /// accumulated state, ships it to the stream processor so the current
    /// window can complete there, and stops the source until
    /// [`BuildingBlock::recover_source`]. Returns the checkpoint for the
    /// eventual restart.
    pub fn fail_source(&mut self, i: usize) -> crate::checkpoint::Checkpoint {
        let now = self.clock.now_secs();
        let ckpt = crate::checkpoint::snapshot(&mut self.sources[i]);
        crate::checkpoint::apply_at_sp(&mut self.sp, i, &ckpt, now);
        self.failed[i] = true;
        ckpt
    }

    /// Recovers source `i` from a checkpoint: reinstalls its adapted load
    /// factors (state stays at the SP, which already owns the checkpointed
    /// windows).
    pub fn recover_source(&mut self, i: usize, ckpt: &crate::checkpoint::Checkpoint) {
        self.sources[i].set_load_factors(&ckpt.load_factors);
        self.failed[i] = false;
    }

    /// Whether source `i` is currently failed.
    pub fn is_failed(&self, i: usize) -> bool {
        self.failed[i]
    }

    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Mutable access to a source engine (budget changes, table swaps).
    pub fn source_mut(&mut self, i: usize) -> &mut SourceEngine {
        &mut self.sources[i]
    }

    /// A source engine.
    pub fn source(&self, i: usize) -> &SourceEngine {
        &self.sources[i]
    }

    /// The stream processor.
    pub fn sp(&self) -> &SpEngine {
        &self.sp
    }

    /// Per-source metrics over the measurement window.
    pub fn metrics(&self) -> &[RunMetrics] {
        &self.metrics
    }

    /// Current epoch index.
    pub fn epoch(&self) -> u64 {
        self.clock.epoch()
    }

    /// Measured (post-warmup) virtual seconds.
    pub fn measured_secs(&self) -> f64 {
        self.measured_epochs as f64 * self.clock.epoch_secs()
    }

    /// Network backlog in bytes.
    pub fn net_backlog_bytes(&self) -> f64 {
        self.net.backlog_bytes()
    }

    /// Advances the whole block by one epoch.
    pub fn run_epoch(&mut self) {
        let epoch_secs = self.clock.epoch_secs();
        let now_us = self.clock.now_micros();
        let now_s = self.clock.now_secs();
        let measuring = self.clock.epoch() >= DEFAULT_WARMUP_EPOCHS;

        // 1. Sources ingest and execute (failed sources stay dark).
        let mut epoch_metrics = Vec::with_capacity(self.sources.len());
        for (i, source) in self.sources.iter_mut().enumerate() {
            if self.failed[i] {
                epoch_metrics.push(crate::engine::metrics::EpochMetrics::default());
                continue;
            }
            let input = self.generators[i].generate_epoch_batch(now_us, epoch_secs);
            let result = source.run_epoch(input, now_us);
            let mut evicted_records = 0usize;
            for (payload, bytes, offset) in result.payloads {
                evicted_records += self.net.enqueue(i, payload, bytes, now_s + offset);
            }
            let mut metrics = result.metrics;
            // Records shed at the uplink buffer never complete.
            metrics.lost_bytes += evicted_records as f64 * source.avg_input_bytes();
            epoch_metrics.push(metrics);
        }

        // 2. Network transfers for this epoch.
        let deliveries = self.net.transmit(now_s, epoch_secs);
        for (flow, d) in deliveries {
            let arrival = d.completed_at.max(d.enqueued_at);
            self.sp.deliver(flow, d.payload, arrival);
        }

        // 3. SP processes its arrivals; completions credit their sources.
        let completions = self.sp.run_epoch(now_us);
        if measuring {
            for c in completions {
                let m = &mut self.metrics[c.source];
                let bytes = self.sources[c.source].avg_input_bytes();
                let latency = (c.completed_s - c.ts as f64 / 1e6).max(0.0);
                if latency <= calibration::LATENCY_BOUND_SECS {
                    m.on_time_bytes += bytes;
                } else {
                    m.late_bytes += bytes;
                }
                m.latency.record(latency);
            }
            for (i, em) in epoch_metrics.iter().enumerate() {
                self.metrics[i].absorb(em);
            }
            self.measured_epochs += 1;
        }

        self.clock.advance();
    }

    /// Runs `n` epochs.
    pub fn run_epochs(&mut self, n: u64) {
        for _ in 0..n {
            self.run_epoch();
        }
    }

    /// Enables result-row retention at the SP for exactness fingerprinting.
    pub fn set_collect_results(&mut self, on: bool) {
        self.sp.set_collect_results(on);
    }

    /// Swaps the static table of every join operator on every source (the
    /// Fig. 8b 10× table growth). The SP replicas keep the tables they were
    /// built with.
    pub fn swap_join_tables(&mut self, table_size: u32) {
        let tables = T2tTables::new(table_size);
        for source in &mut self.sources {
            tables.install(source.ops_mut());
        }
    }

    /// End-of-run flush for exactness fingerprinting: delivers everything
    /// still on the wire, ships residual source state and queued records to
    /// the SP, and closes all remaining windows there.
    pub fn finalize_results(&mut self) {
        let now = self.clock.now_secs();
        // Deliver the whole network backlog.
        for (flow, d) in self.net.transmit(now, 1e9) {
            let arrival = d.completed_at.max(d.enqueued_at);
            self.sp.deliver(flow, d.payload, arrival);
        }
        // Residual source-side state and queues.
        for i in 0..self.sources.len() {
            if self.failed[i] {
                continue;
            }
            let (batches, deltas) = self.sources[i].drain_residual();
            for (stage, stage_batches) in batches {
                for batch in stage_batches {
                    self.sp
                        .deliver(i, NetPayload::Records { stage, batch }, now);
                }
            }
            for (stage, delta) in deltas {
                self.sp
                    .deliver(i, NetPayload::StateDelta { stage, delta }, now);
            }
        }
        self.sp.finalize();
    }

    /// Aggregate on-time throughput across sources, paper-Mbps.
    pub fn aggregate_throughput_mbps(&self) -> f64 {
        let secs = self.measured_secs();
        self.metrics.iter().map(|m| m.throughput_mbps(secs)).sum()
    }

    /// Aggregate offered network rate, paper-Mbps.
    pub fn aggregate_network_mbps(&self) -> f64 {
        let secs = self.measured_secs();
        self.metrics.iter().map(|m| m.network_mbps(secs)).sum()
    }
}
