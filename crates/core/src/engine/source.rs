//! The source-side execution engine, batch-first.
//!
//! Runs one query instance on one emulated data source node: routes arriving
//! batches through control proxies (per-row, so error-diffusion routing stays
//! deterministic), charges operator costs against the node's epoch budget a
//! sub-batch at a time, sheds or queues overflow according to the strategy,
//! ships stateful partial-state deltas every
//! [`STATE_SHIP_INTERVAL_EPOCHS`](calibration::STATE_SHIP_INTERVAL_EPOCHS), and drives
//! the Jarvis runtime at every epoch boundary — including dedicated Profile
//! epochs that measure per-operator cost and relay ratios.

use std::collections::VecDeque;

use simnet::{CpuBudget, Node, NodeId};
use streamkit::batch::Batch;
use streamkit::ops::{absorbed_timestamps, AggRole, Operator};
use streamkit::physical::{build_pipeline, CostProfile};
use streamkit::schema::SchemaRef;
use streamkit::time::Ts;

use crate::calibration;
use crate::engine::metrics::EpochMetrics;
use crate::engine::NetPayload;
use crate::planner::PlannedQuery;
use crate::proxy::{classify_query, ControlProxy, ProxyState, QueryState};
use crate::runtime::{JarvisRuntime, PROFILE_COST_US};
use crate::stepwise::ProfileEstimates;
use crate::strategy::{OverflowMode, StrategyKind};

/// One pipeline stage: a control proxy guarding an operator and its queue of
/// pending batches.
struct Stage {
    proxy: ControlProxy,
    op: Box<dyn Operator>,
    queue: VecDeque<Batch>,
}

impl Stage {
    fn queued_rows(&self) -> usize {
        self.queue.iter().map(Batch::len).sum()
    }
}

/// Source engine configuration: what differs between sources. Everything
/// else (epoch length, CPU jitter, ship cadence, queue cap, thrashing) is a
/// [`calibration`] constant.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Node id for the emulated source.
    pub node_id: u32,
    /// Initial CPU budget, fraction of cores.
    pub cpu_budget: f64,
    /// Partitioning strategy.
    pub strategy: StrategyKind,
    /// RNG seed (node jitter).
    pub seed: u64,
}

impl SourceConfig {
    /// A source with the default seed.
    pub fn new(node_id: u32, cpu_budget: f64, strategy: StrategyKind) -> SourceConfig {
        SourceConfig {
            node_id,
            cpu_budget,
            strategy,
            seed: 42,
        }
    }
}

/// Result of one source epoch.
pub struct SourceEpochResult {
    /// Payloads to enqueue on the uplink, with their wire bytes and enqueue
    /// offsets within the epoch in seconds.
    pub payloads: Vec<(NetPayload, usize, f64)>,
    /// Source-side metrics for the epoch.
    pub metrics: EpochMetrics,
}

/// The source-side engine.
pub struct SourceEngine {
    node: Node,
    stages: Vec<Stage>,
    /// Edge schemas for the full plan (index i = input schema of op i).
    schemas: Vec<SchemaRef>,
    /// Operators in the source-eligible prefix.
    source_ops: usize,
    overflow: OverflowMode,
    runtime: JarvisRuntime,
    /// Average input record wire bytes (updated per epoch) for
    /// input-equivalent byte attribution.
    avg_input_bytes: f64,
    epochs_since_ship: u32,
    profile_next: bool,
    epoch: u64,
    /// Rows currently queued across stages (cheap running count).
    queued_records: usize,
    /// Completions seen, for latency subsampling.
    completion_counter: u64,
}

impl SourceEngine {
    /// Builds the engine for a planned query.
    pub fn new(planned: &PlannedQuery, costs: &CostProfile, cfg: SourceConfig) -> SourceEngine {
        let schemas = planned.plan.edge_schemas().expect("validated plan");
        // Source-side stateful operators run in Partial role: they ship
        // mergeable state increments instead of emitting results.
        let ops = build_pipeline(&planned.plan, costs, AggRole::Partial).expect("validated plan");
        let initial_p = cfg.strategy.initial_load_factors(planned);
        let mut stages = Vec::with_capacity(planned.source_ops);
        for (i, op) in ops.into_iter().take(planned.source_ops).enumerate() {
            stages.push(Stage {
                proxy: ControlProxy::new(
                    initial_p.get(i).copied().unwrap_or(0.0),
                    calibration::DRAINED_THRES,
                    calibration::IDLE_THRES,
                ),
                op,
                queue: VecDeque::new(),
            });
        }
        let runtime = JarvisRuntime::with_policy(
            cfg.strategy.runtime_config(),
            cfg.strategy.build_policy(planned.source_ops),
        );
        let node = Node::new(
            NodeId(cfg.node_id),
            CpuBudget::fraction(cfg.cpu_budget),
            calibration::CPU_JITTER_FRAC,
            cfg.seed,
        );
        SourceEngine {
            node,
            stages,
            schemas,
            source_ops: planned.source_ops,
            overflow: cfg.strategy.overflow_mode(),
            runtime,
            avg_input_bytes: 0.0,
            epochs_since_ship: 0,
            profile_next: false,
            epoch: 0,
            queued_records: 0,
            completion_counter: 0,
        }
    }

    /// Changes the node's CPU budget (resource-condition experiments).
    pub fn set_cpu_budget(&mut self, fraction: f64) {
        self.node.set_budget(CpuBudget::fraction(fraction));
    }

    /// Current load factors.
    pub fn load_factors(&self) -> Vec<f64> {
        self.stages.iter().map(|s| s.proxy.load_factor()).collect()
    }

    /// Installs load factors (used by fixed-allocation experiments §VI-F).
    pub fn set_load_factors(&mut self, p: &[f64]) {
        for (stage, &v) in self.stages.iter_mut().zip(p) {
            stage.proxy.set_load_factor(v);
        }
    }

    /// The runtime (trace/episode access).
    pub fn runtime(&self) -> &JarvisRuntime {
        &self.runtime
    }

    /// Mutable operator access (checkpoint snapshot and restore).
    pub fn op_mut(&mut self, stage: usize) -> &mut dyn Operator {
        self.stages[stage].op.as_mut()
    }

    /// The source-side operators, in plan order (join-table swaps).
    pub(crate) fn ops_mut(&mut self) -> impl Iterator<Item = &mut Box<dyn Operator>> {
        self.stages.iter_mut().map(|s| &mut s.op)
    }

    /// Average wire bytes of one input record (input-equivalent crediting of
    /// SP-side completions).
    pub fn avg_input_bytes(&self) -> f64 {
        self.avg_input_bytes
    }

    /// Thrash reflects *carried-over* backlog (memory pressure from previous
    /// epochs), not the normal batch of the current epoch — it is computed at
    /// epoch start and held constant for the epoch.
    fn compute_thrash_multiplier(&self) -> f64 {
        if self.overflow == OverflowMode::Queue {
            let frac =
                (self.queued_records as f64 / calibration::QUEUE_CAP_RECORDS as f64).min(1.0);
            1.0 + calibration::THRASH_COEFF * frac
        } else {
            1.0
        }
    }

    /// Time within the epoch (seconds offset) at the node's current
    /// utilisation, for sub-epoch completion timestamps.
    fn now_frac(&self) -> f64 {
        self.node.epoch_utilisation().min(1.0) * calibration::EPOCH_SECS
    }

    /// Runs one epoch. `input` is this epoch's arrival batch;
    /// `epoch_start_us` is virtual time at the epoch start.
    pub fn run_epoch(&mut self, mut input: Batch, epoch_start_us: Ts) -> SourceEpochResult {
        // Wire accounting follows the plan's input schema, not whatever
        // schema the generator tagged the batch with (trace replay infers
        // column types, which would otherwise inflate byte counts).
        input.relabel(&self.schemas[0]);
        self.node.begin_epoch(calibration::EPOCH_SECS);
        let mut metrics = EpochMetrics::default();
        let mut payloads: Vec<(NetPayload, usize, f64)> = Vec::new();

        metrics.input_records = input.len() as u64;
        metrics.input_bytes = input.wire_size() as u64;
        if metrics.input_records > 0 {
            self.avg_input_bytes = metrics.input_bytes as f64 / metrics.input_records as f64;
        }
        for stage in &mut self.stages {
            stage.proxy.begin_epoch();
        }

        let profiling = self.profile_next;
        self.profile_next = false;
        let estimates = if profiling {
            Some(self.run_profile_epoch(input, epoch_start_us, &mut metrics, &mut payloads))
        } else {
            self.run_normal_epoch(input, epoch_start_us, &mut metrics, &mut payloads);
            None
        };

        // Ship stateful partial state at the configured cadence (and always
        // right after a profile epoch, which measured via shipping).
        self.epochs_since_ship += 1;
        if !profiling && self.epochs_since_ship >= calibration::STATE_SHIP_INTERVAL_EPOCHS {
            self.epochs_since_ship = 0;
            self.ship_state_deltas(&mut metrics, &mut payloads);
        }

        // Epoch boundary: classify proxies, drive the runtime.
        let node_idle_frac = 1.0 - self.node.epoch_utilisation();
        let states: Vec<ProxyState> = self
            .stages
            .iter()
            .map(|s| s.proxy.classify(node_idle_frac))
            .collect();
        let mut qstate = classify_query(&states);
        // An idle query whose load factors are already all 1 has nothing left
        // to pull local: treat as stable so the runtime does not churn
        // through pointless Profile/Adapt cycles.
        if qstate == QueryState::Idle
            && self
                .stages
                .iter()
                .all(|s| s.proxy.load_factor() >= 1.0 - 1e-12)
        {
            qstate = QueryState::Stable;
        }
        metrics.query_state = Some(qstate);

        let current_p = self.load_factors();
        let decision = self.runtime.on_epoch_end(qstate, estimates, &current_p);
        if let Some(p) = decision.set_load_factors {
            self.set_load_factors(&p);
        }
        self.profile_next = decision.run_profile;
        metrics.trace = self.runtime.trace().last().map(|t| t.trace);

        self.epoch += 1;
        SourceEpochResult { payloads, metrics }
    }

    /// Routes a batch at stage `i`'s proxy via
    /// [`ControlProxy::split_batch`]: the forwarded part joins the stage
    /// queue, the drained part is destined for SP stage `i`. Returns the
    /// number of rows forwarded.
    fn route_batch(
        stages: &mut [Stage],
        drains: &mut [Vec<Batch>],
        i: usize,
        batch: Batch,
    ) -> usize {
        let (fwd, drained) = stages[i].proxy.split_batch(batch);
        if let Some(drained) = drained {
            drains[i].push(drained);
        }
        let mut forwarded = 0;
        if let Some(fwd) = fwd {
            forwarded = fwd.len();
            stages[i].queue.push_back(fwd);
        }
        forwarded
    }

    fn run_normal_epoch(
        &mut self,
        input: Batch,
        epoch_start_us: Ts,
        metrics: &mut EpochMetrics,
        payloads: &mut Vec<(NetPayload, usize, f64)>,
    ) {
        let m = self.source_ops;
        let mut drains: Vec<Vec<Batch>> = vec![Vec::new(); m + 1];
        // `drains[m]` holds rows that traversed the whole local prefix
        // (possible only when the prefix is shorter than the plan, or the
        // tail operator is stateless).
        let epoch_end_us = epoch_start_us + (calibration::EPOCH_SECS * 1e6) as Ts;
        // Memory-pressure penalty from the backlog carried into this epoch.
        let thrash = self.compute_thrash_multiplier();

        // Route arrivals at stage 0.
        self.queued_records += Self::route_batch(&mut self.stages, &mut drains, 0, input);

        // Process queues in pipeline order, a quantum of rows at a time,
        // until the budget is exhausted or everything is drained.
        let mut out_buf: Vec<Batch> = Vec::new();
        'outer: loop {
            let mut progressed = false;
            for i in 0..m {
                let mut quota = calibration::EXEC_QUANTUM;
                while quota > 0 {
                    let Some(front) = self.stages[i].queue.pop_front() else {
                        break;
                    };
                    if front.is_empty() {
                        continue;
                    }
                    let cost = self.stages[i].op.cost_us() * thrash;
                    let take = front.len().min(quota).min(self.node.affordable(cost));
                    if take == 0 {
                        self.stages[i].queue.push_front(front);
                        break 'outer;
                    }
                    let head = if take == front.len() {
                        front
                    } else {
                        let rest = front.slice(take..front.len());
                        let head = front.slice(0..take);
                        self.stages[i].queue.push_front(rest);
                        head
                    };
                    self.node.charge_upto(take as f64 * cost);
                    quota -= take;
                    self.queued_records -= take;
                    progressed = true;
                    let in_ts = head.timestamps.clone();
                    out_buf.clear();
                    self.stages[i].op.process_batch(head, &mut out_buf);
                    // Rows with no output were filtered out or absorbed into
                    // state: they complete locally.
                    for ts in absorbed_timestamps(&in_ts, &out_buf) {
                        self.complete_local(ts, epoch_start_us, metrics);
                    }
                    for out in out_buf.drain(..) {
                        if i + 1 < m {
                            self.queued_records +=
                                Self::route_batch(&mut self.stages, &mut drains, i + 1, out);
                        } else {
                            drains[m].push(out);
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }

        // Epoch-end watermark: closed-window emissions from final-role ops
        // (none in Partial role) flow downstream without extra cost.
        let mut wm_out: Vec<Batch> = Vec::new();
        for i in 0..m {
            wm_out.clear();
            self.stages[i].op.on_watermark(epoch_end_us, &mut wm_out);
            self.stages[i].op.on_epoch(&mut wm_out);
            for out in wm_out.drain(..) {
                if i + 1 < m {
                    self.queued_records +=
                        Self::route_batch(&mut self.stages, &mut drains, i + 1, out);
                } else {
                    drains[m].push(out);
                }
            }
        }

        // Leftovers: shed (data-level) or keep/cap (operator-level).
        match self.overflow {
            OverflowMode::Drain => {
                for (stage, drain) in self.stages[..m].iter_mut().zip(drains.iter_mut()) {
                    let n = stage.queued_rows() as u64;
                    if n > 0 {
                        stage.proxy.note_overflow(n);
                        drain.extend(stage.queue.drain(..));
                        stage.proxy.note_starved(false);
                    } else {
                        // Queue emptied before the epoch ran out of budget.
                        stage.proxy.note_starved(true);
                    }
                }
                self.recount_queue();
            }
            OverflowMode::Queue => {
                for stage in &mut self.stages[..m] {
                    let pending = stage.queued_rows() as u64;
                    stage.proxy.note_pending(pending);
                    stage.proxy.note_starved(pending == 0);
                }
                // Memory cap: drop oldest rows from the most backlogged stage.
                while self.queued_records > calibration::QUEUE_CAP_RECORDS {
                    let longest = (0..m)
                        .max_by_key(|&i| self.stages[i].queued_rows())
                        .expect("stages exist");
                    let Some(front) = self.stages[longest].queue.pop_front() else {
                        break;
                    };
                    let excess = self.queued_records - calibration::QUEUE_CAP_RECORDS;
                    let drop_n = front.len().min(excess);
                    if drop_n < front.len() {
                        self.stages[longest]
                            .queue
                            .push_front(front.slice(drop_n..front.len()));
                    }
                    self.queued_records -= drop_n;
                    metrics.lost_bytes += drop_n as f64 * self.avg_input_bytes;
                }
            }
        }

        // Flush drains to the network.
        self.flush_drains(drains, metrics, payloads);
    }

    /// Marks one input row's processing complete at the source.
    fn complete_local(&mut self, ts: Ts, epoch_start_us: Ts, metrics: &mut EpochMetrics) {
        let completion_s = epoch_start_us as f64 / 1e6 + self.now_frac();
        let latency = (completion_s - ts as f64 / 1e6).max(0.0);
        if latency <= calibration::LATENCY_BOUND_SECS {
            metrics.on_time_bytes += self.avg_input_bytes;
        } else {
            metrics.late_bytes += self.avg_input_bytes;
        }
        // Subsample latency 1-in-64 to keep per-epoch overhead flat.
        self.completion_counter = self.completion_counter.wrapping_add(1);
        if self.completion_counter.is_multiple_of(64) {
            metrics.latency_samples.push(latency);
        }
    }

    fn recount_queue(&mut self) {
        self.queued_records = self.stages.iter().map(Stage::queued_rows).sum();
    }

    /// Rows per network payload chunk. Small chunks give the links a fine
    /// eviction/fair-sharing quantum and sub-epoch completion times.
    const DRAIN_CHUNK_RECORDS: usize = 512;

    fn flush_drains(
        &mut self,
        drains: Vec<Vec<Batch>>,
        metrics: &mut EpochMetrics,
        payloads: &mut Vec<(NetPayload, usize, f64)>,
    ) {
        for (stage, batches) in drains.into_iter().enumerate() {
            let total_rows: usize = batches.iter().map(Batch::len).sum();
            if total_rows == 0 {
                continue;
            }
            metrics.drained_records += total_rows as u64;
            // Chunk and spread enqueue offsets across the epoch (routing
            // drains occur throughout it).
            let n_chunks: usize = batches
                .iter()
                .map(|b| b.len().div_ceil(Self::DRAIN_CHUNK_RECORDS))
                .sum();
            let mut c = 0usize;
            for batch in batches {
                for chunk in batch.into_chunks(Self::DRAIN_CHUNK_RECORDS) {
                    let bytes = chunk.wire_size();
                    metrics.net_bytes += bytes as u64;
                    let offset = (c as f64 + 0.5) / n_chunks as f64 * calibration::EPOCH_SECS;
                    c += 1;
                    payloads.push((
                        NetPayload::Records {
                            stage,
                            batch: chunk,
                        },
                        bytes,
                        offset,
                    ));
                }
            }
        }
    }

    fn ship_state_deltas(
        &mut self,
        metrics: &mut EpochMetrics,
        payloads: &mut Vec<(NetPayload, usize, f64)>,
    ) {
        for i in 0..self.source_ops {
            if !self.stages[i].op.is_stateful() {
                continue;
            }
            if let Some(delta) = self.stages[i].op.take_state_delta() {
                let bytes = delta.wire_bytes();
                metrics.net_bytes += bytes as u64;
                metrics.state_bytes += bytes as u64;
                payloads.push((
                    NetPayload::StateDelta { stage: i, delta },
                    bytes,
                    calibration::EPOCH_SECS,
                ));
            }
        }
    }

    /// A Profile epoch (paper §IV-C): execute one operator at a time on as
    /// much data as a per-operator budget slice allows, measuring per-record
    /// cost, relay ratios and the available budget. Costs are sampled per
    /// [`calibration::PROFILE_SUBBATCH_ROWS`]-row sub-batch so state-dependent growth is
    /// still observed. Unprocessed rows are drained losslessly.
    fn run_profile_epoch(
        &mut self,
        input: Batch,
        epoch_start_us: Ts,
        metrics: &mut EpochMetrics,
        payloads: &mut Vec<(NetPayload, usize, f64)>,
    ) -> ProfileEstimates {
        let m = self.source_ops;
        let records_per_epoch = input.len() as f64;
        self.node.charge_upto(PROFILE_COST_US);
        let slice = if m > 0 {
            self.node.remaining_us() / m as f64
        } else {
            0.0
        };

        let mut cost_us = Vec::with_capacity(m);
        let mut relay_bytes = Vec::with_capacity(m);
        let mut relay_count = Vec::with_capacity(m);
        let mut drains: Vec<Vec<Batch>> = vec![Vec::new(); m + 1];
        let mut batches = vec![input];

        #[allow(clippy::needless_range_loop)] // `i` indexes stages, schemas, and drains alike
        for i in 0..m {
            // Any backlog from previous epochs joins the sample.
            let mut pending: Vec<Batch> = self.stages[i].queue.drain(..).collect();
            pending.append(&mut batches);
            let mut used = 0.0f64;
            let mut processed = 0usize;
            let mut in_bytes = 0usize;
            let mut out: Vec<Batch> = Vec::new();
            let mut leftovers: Vec<Batch> = Vec::new();
            for batch in pending {
                let mut rest = batch;
                loop {
                    if rest.is_empty() {
                        break;
                    }
                    let cost = self.stages[i].op.cost_us();
                    let slice_afford = if cost <= 0.0 {
                        rest.len()
                    } else {
                        (((slice - used) / cost).max(0.0) as usize).min(self.node.affordable(cost))
                    };
                    let take = rest
                        .len()
                        .min(calibration::PROFILE_SUBBATCH_ROWS)
                        .min(slice_afford);
                    if take == 0 {
                        leftovers.push(rest);
                        break;
                    }
                    let head = if take == rest.len() {
                        std::mem::replace(&mut rest, Batch::empty(self.schemas[i].clone()))
                    } else {
                        let head = rest.slice(0..take);
                        rest = rest.slice(take..rest.len());
                        head
                    };
                    self.node.charge_upto(take as f64 * cost);
                    used += take as f64 * cost;
                    processed += take;
                    in_bytes += head.wire_size();
                    let in_ts = head.timestamps.clone();
                    let before = out.len();
                    self.stages[i].op.process_batch(head, &mut out);
                    for ts in absorbed_timestamps(&in_ts, &out[before..]) {
                        self.complete_local(ts, epoch_start_us, metrics);
                    }
                }
            }
            let mut out_bytes: usize = out.iter().map(Batch::wire_size).sum();
            let mut out_count: usize = out.iter().map(Batch::len).sum();
            // Stateful operators produce their output as shipped state.
            if self.stages[i].op.is_stateful() {
                if let Some(delta) = self.stages[i].op.take_state_delta() {
                    out_bytes += delta.wire_bytes();
                    out_count += delta.entry_count();
                    let bytes = delta.wire_bytes();
                    metrics.net_bytes += bytes as u64;
                    metrics.state_bytes += bytes as u64;
                    payloads.push((
                        NetPayload::StateDelta { stage: i, delta },
                        bytes,
                        calibration::EPOCH_SECS,
                    ));
                }
            }
            cost_us.push(if processed > 0 {
                used / processed as f64
            } else {
                self.stages[i].op.cost_us()
            });
            relay_bytes.push(if in_bytes > 0 {
                out_bytes as f64 / in_bytes as f64
            } else {
                1.0
            });
            relay_count.push(if processed > 0 {
                out_count as f64 / processed as f64
            } else {
                1.0
            });
            drains[i].extend(leftovers);
            batches = out;
        }
        drains[m].append(&mut batches);
        self.recount_queue();
        self.flush_drains(drains, metrics, payloads);

        ProfileEstimates {
            cost_us,
            relay_bytes,
            relay_count,
            records_per_epoch,
            budget_us: self.node.granted_us(),
        }
    }

    /// Drains everything still held on the source — queued batches per stage
    /// and unshipped partial state — for an end-of-run flush to the stream
    /// processor (exactness fingerprinting).
    #[allow(clippy::type_complexity)]
    pub fn drain_residual(
        &mut self,
    ) -> (
        Vec<(usize, Vec<Batch>)>,
        Vec<(usize, streamkit::ops::StatePartial)>,
    ) {
        let mut batches = Vec::new();
        let mut deltas = Vec::new();
        for (stage, s) in self.stages.iter_mut().enumerate() {
            let queued: Vec<Batch> = s.queue.drain(..).collect();
            if !queued.is_empty() {
                batches.push((stage, queued));
            }
            if s.op.is_stateful() {
                if let Some(delta) = s.op.take_state_delta() {
                    deltas.push((stage, delta));
                }
            }
        }
        self.queued_records = 0;
        (batches, deltas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::s2s_cost_profile;
    use crate::planner::{plan_query, RuleConfig};
    use telemetry::pingmesh::{PingmeshConfig, PingmeshGenerator};

    fn engine(strategy: StrategyKind, cpu: f64) -> SourceEngine {
        let planned = plan_query(telemetry::queries::s2s_probe(), &RuleConfig::default()).unwrap();
        SourceEngine::new(
            &planned,
            &s2s_cost_profile(),
            SourceConfig::new(1, cpu, strategy),
        )
    }

    fn epoch_input(e: i64, scale: f64) -> Batch {
        let mut gen = PingmeshGenerator::new(PingmeshConfig {
            scale,
            ..Default::default()
        });
        // Fast-forward the generator deterministically to epoch e.
        let mut out = gen.generate_epoch_batch(0, 1.0);
        for i in 1..=e {
            out = gen.generate_epoch_batch(i * 1_000_000, 1.0);
        }
        out
    }

    #[test]
    fn replayed_traces_account_under_the_plan_schema() {
        // A trace replay infers column types (U32 fields come back as U64),
        // but wire accounting must follow the plan's input schema: every
        // Pingmesh record is 86 bytes regardless of how it arrived.
        let mut gen = PingmeshGenerator::new(PingmeshConfig::default());
        let recorded = gen.generate_epoch(0, 1.0);
        let n = recorded.len() as u64;
        let mut replay = telemetry::trace::ReplayGenerator::new(recorded);
        let mut eng = engine(StrategyKind::AllSrc, 1.0);
        let result = eng.run_epoch(replay.generate_epoch_batch(0, 1.0), 0);
        assert_eq!(result.metrics.input_records, n);
        assert_eq!(
            result.metrics.input_bytes,
            n * telemetry::pingmesh::PINGMESH_RECORD_BYTES as u64
        );
        assert!((eng.avg_input_bytes() - 86.0).abs() < 1e-9);
    }

    #[test]
    fn drained_dict_batches_ship_the_smaller_dict_layout() {
        // LogAnalytics with the group stage pinned remote: batches drained
        // after ParseJobStats carry dictionary-encoded tenant / stat-name
        // columns, and the engine charges the (smaller) dict wire layout —
        // `Batch::wire_size` is the single source of truth either way.
        use telemetry::loganalytics::{LogConfig, LogGenerator};

        let planned =
            plan_query(telemetry::queries::log_analytics(), &RuleConfig::default()).unwrap();
        let mut eng = SourceEngine::new(
            &planned,
            &crate::calibration::log_cost_profile(),
            SourceConfig::new(1, 1.0, StrategyKind::Jarvis),
        );
        let n_ops = planned.plan.ops.len();
        // Run everything up to (and including) the parse locally, drain the
        // rest to the SP replica.
        let mut factors = vec![1.0; n_ops];
        for f in factors.iter_mut().skip(4) {
            *f = 0.0;
        }
        eng.set_load_factors(&factors);
        let mut gen = LogGenerator::new(LogConfig {
            scale: 0.2,
            ..Default::default()
        });
        let result = eng.run_epoch(gen.generate_epoch_batch(0, 1.0), 0);
        let mut saw_dict_drain = false;
        for (payload, bytes, _) in &result.payloads {
            if let NetPayload::Records { batch, .. } = payload {
                assert_eq!(*bytes, batch.wire_size(), "charged = layout-derived");
                if batch.columns.iter().any(|c| c.as_dict().is_some()) {
                    saw_dict_drain = true;
                    let mut plain = batch.clone();
                    plain.dict_decode();
                    assert!(
                        batch.wire_size() < plain.wire_size(),
                        "dict drain {} must undercut plain {}",
                        batch.wire_size(),
                        plain.wire_size()
                    );
                    assert_eq!(plain.to_records(), batch.to_records());
                }
            }
        }
        assert!(
            saw_dict_drain,
            "post-parse drains must carry dict columns (factors {factors:?})"
        );
    }

    #[test]
    fn all_src_consumes_records_locally() {
        let mut eng = engine(StrategyKind::AllSrc, 1.0);
        let input = epoch_input(0, 1.0);
        let n = input.len() as u64;
        let result = eng.run_epoch(input, 0);
        assert_eq!(result.metrics.input_records, n);
        assert_eq!(result.metrics.drained_records, 0, "everything fits locally");
        assert!(result.metrics.on_time_bytes > 0.0);
    }

    #[test]
    fn all_sp_drains_every_record() {
        let mut eng = engine(StrategyKind::AllSp, 1.0);
        let input = epoch_input(0, 1.0);
        let n = input.len() as u64;
        let result = eng.run_epoch(input, 0);
        assert_eq!(result.metrics.drained_records, n);
        assert_eq!(
            result.metrics.on_time_bytes, 0.0,
            "completions happen at the SP"
        );
    }

    #[test]
    fn drain_mode_sheds_overflow_instead_of_queueing() {
        // Jarvis at a tiny budget with factors pinned to 1: the operators
        // cannot keep up, and the leftovers must drain (lossless), leaving
        // empty queues.
        let mut eng = engine(StrategyKind::Jarvis, 0.05);
        eng.set_load_factors(&[1.0, 1.0, 1.0]);
        let input = epoch_input(0, 10.0);
        let n = input.len() as u64;
        let result = eng.run_epoch(input, 0);
        assert!(result.metrics.drained_records > 0);
        // Conservation: local completions + drained == arrived (queues are
        // empty in drain mode). Completions are in input-equivalent bytes.
        let completed = ((result.metrics.on_time_bytes + result.metrics.late_bytes)
            / eng.avg_input_bytes())
        .round() as u64;
        assert_eq!(completed + result.metrics.drained_records, n);
    }

    #[test]
    fn profile_epoch_produces_biased_but_sane_estimates() {
        let planned = plan_query(telemetry::queries::s2s_probe(), &RuleConfig::default()).unwrap();
        let mut eng = SourceEngine::new(
            &planned,
            &s2s_cost_profile(),
            SourceConfig::new(1, 0.9, StrategyKind::Jarvis),
        );
        eng.profile_next = true;
        let result = eng.run_epoch(epoch_input(0, 10.0), 0);
        // Profiling ran: the runtime received estimates and moved to Adapt.
        let est = eng.runtime().estimates().expect("profile estimates");
        assert_eq!(est.len(), 3);
        // Filter cost is state-independent and must be measured accurately.
        assert!((est.cost_us[1] - 3.25).abs() < 0.1, "{est:?}");
        // The filter's byte relay ratio ≈ its 86% selectivity.
        assert!((est.relay_bytes[1] - 0.86).abs() < 0.05, "{est:?}");
        // G+R cost is *underestimated* relative to the ~22.5 µs steady state
        // (the §VI-C profiling-bias phenomenon).
        assert!(est.cost_us[2] < 22.0, "{est:?}");
        // Unprocessed profile records drained losslessly.
        assert!(result.metrics.drained_records > 0);
    }

    #[test]
    fn load_factors_clamp_and_install() {
        let mut eng = engine(StrategyKind::Jarvis, 0.5);
        eng.set_load_factors(&[0.5, 2.0, -1.0]);
        assert_eq!(eng.load_factors(), vec![0.5, 1.0, 0.0]);
    }
}
