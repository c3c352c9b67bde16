//! The stream-processor engine: the paper's one stream processor (Fig. 4b),
//! batch-first and budgeted.
//!
//! Each data source has a replica of the planned query at the SP (paper
//! Fig. 5): one chain of operators, where drained batches enter at the
//! operator they were drained in front of and shipped
//! [`StatePartial`](streamkit::ops::StatePartial)s merge into the operator
//! that shipped them. The plan's *keyed boundary* (its first group-by)
//! splits the chain for accounting only: rows that reach it count as
//! drained, and compute from it on counts as suffix usage.
//!
//! Every stage has an arrival queue, and each pass processes them under the
//! SP's [`CpuBudget`] in execution quanta, so completions carry the virtual
//! time they finished at. Scaling the SP out over a ring of shards and
//! nodes is the live tier's job (`live::host::ShardHost`); the emulated
//! backend refuses such deployments at build time (`JP305`).
//!
//! Throughput accounting distinguishes the *input domain* (drained source
//! rows still being processed — their terminal events complete the input
//! work) from the *result domain* (rows emitted by aggregations — query
//! output, never double-counted as input completions).

use std::collections::VecDeque;

use simnet::{CpuBudget, Node, NodeId};
use streamkit::batch::Batch;
use streamkit::ops::{absorbed_timestamps, AggRole, Operator};
use streamkit::physical::{build_pipeline, CostProfile};
use streamkit::time::Ts;

use crate::calibration;
use crate::engine::NetPayload;
use crate::planner::PlannedQuery;

/// Which domain a queued batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemKind {
    /// Drained source rows still being processed (input domain).
    Input,
    /// Rows emitted by a window close (query result).
    WindowResult,
    /// Per-epoch dashboard deltas (result domain, never fingerprinted).
    DeltaResult,
}

/// A queued item: the batch, its network-arrival time, and its domain.
struct Item {
    batch: Batch,
    arrived: f64,
    kind: ItemKind,
}

/// Per-source replica: one chain of the planned query's operators.
struct Replica {
    ops: Vec<Box<dyn Operator>>,
    /// Arrival queues, one per stage, plus a final slot for batches that
    /// completed the whole chain.
    queues: Vec<VecDeque<Item>>,
    /// Input rows that reached the keyed suffix.
    drained_records: u64,
    /// Modelled compute charged to the suffix stages, µs.
    usage_us: f64,
}

impl Replica {
    /// Whether any queue still holds work, the terminal slot included (its
    /// drain is itself a processing step). Drives the active-set sweep in
    /// [`SpEngine::process_queued`].
    fn has_pending(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    /// Queues an item at stage `to` (`to == ops.len()` is the terminal
    /// slot). Entering the keyed suffix at `boundary` drops empty batches
    /// and counts input rows.
    fn forward(&mut self, boundary: usize, to: usize, item: Item) {
        if to == boundary {
            if item.batch.is_empty() {
                return;
            }
            if item.kind == ItemKind::Input {
                self.drained_records += item.batch.len() as u64;
            }
        }
        self.queues[to].push_back(item);
    }
}

/// Cost of merging one group's partial state, µs.
const MERGE_COST_PER_ENTRY_US: f64 = 0.5;

/// An input-record completion at the SP.
#[derive(Debug, Clone, Copy)]
pub struct SpCompletion {
    /// Which source the record came from.
    pub source: usize,
    /// The record's event timestamp.
    pub ts: Ts,
    /// Virtual completion time, seconds.
    pub completed_s: f64,
}

/// The stream processor: one replica of the planned query per source, on
/// one budgeted node of [`calibration::SP_CORES`] cores.
pub struct SpEngine {
    node: Node,
    replicas: Vec<Replica>,
    /// Index of the plan's keyed boundary (the chain length for a keyless
    /// plan).
    boundary: usize,
    results_emitted: u64,
    /// Retained result batches (window closes and stateless-tail
    /// completions), when result collection is enabled for exactness
    /// fingerprinting.
    collected: Option<Vec<Batch>>,
}

/// Processes one stage queue under the execution quantum, charging `node`
/// and crediting completions. Output items are appended to `routed` for the
/// caller to place downstream. Returns `false` when the CPU budget ran out
/// (the caller stops the epoch's processing sweep).
#[allow(clippy::too_many_arguments)]
fn process_stage(
    node: &mut Node,
    stage_op: &mut dyn Operator,
    queue: &mut VecDeque<Item>,
    source: usize,
    epoch_start_s: f64,
    completions: &mut Vec<SpCompletion>,
    routed: &mut Vec<Item>,
    progressed: &mut bool,
    usage_us: Option<&mut f64>,
) -> bool {
    let mut quota = calibration::EXEC_QUANTUM;
    let mut stage_usage = 0.0;
    let mut out_buf: Vec<Batch> = Vec::new();
    let fits = loop {
        if quota == 0 {
            break true;
        }
        let Some(item) = queue.pop_front() else {
            break true;
        };
        if item.batch.is_empty() {
            continue;
        }
        let cost = stage_op.cost_us();
        let take = item.batch.len().min(quota).min(node.affordable(cost));
        if take == 0 {
            queue.push_front(item);
            break false;
        }
        let head = if take == item.batch.len() {
            item.batch
        } else {
            let rest = item.batch.slice(take..item.batch.len());
            let head = item.batch.slice(0..take);
            queue.push_front(Item {
                batch: rest,
                arrived: item.arrived,
                kind: item.kind,
            });
            head
        };
        let charged = take as f64 * cost;
        node.charge_upto(charged);
        stage_usage += charged;
        quota -= take;
        *progressed = true;
        let completed_s =
            (epoch_start_s + node.epoch_utilisation() * calibration::EPOCH_SECS).max(item.arrived);
        let in_ts = head.timestamps.clone();
        out_buf.clear();
        stage_op.process_batch(head, &mut out_buf);
        if item.kind == ItemKind::Input {
            // Terminal rows: filtered out or absorbed into state.
            for ts in absorbed_timestamps(&in_ts, &out_buf) {
                completions.push(SpCompletion {
                    source,
                    ts,
                    completed_s,
                });
            }
        }
        for out in out_buf.drain(..) {
            routed.push(Item {
                batch: out,
                arrived: completed_s,
                kind: item.kind,
            });
        }
    };
    if let Some(usage) = usage_us {
        *usage += stage_usage;
    }
    fits
}

impl SpEngine {
    /// Builds the SP hosting `n_sources` replicas of the planned query.
    pub fn new(planned: &PlannedQuery, costs: &CostProfile, n_sources: usize) -> SpEngine {
        let replicas = (0..n_sources)
            .map(|_| {
                let ops =
                    build_pipeline(&planned.plan, costs, AggRole::Final).expect("validated plan");
                Replica {
                    queues: (0..=ops.len()).map(|_| VecDeque::new()).collect(),
                    ops,
                    drained_records: 0,
                    usage_us: 0.0,
                }
            })
            .collect();
        SpEngine {
            node: Node::new(
                NodeId(0),
                CpuBudget::fraction(calibration::SP_CORES),
                0.0,
                7,
            ),
            replicas,
            boundary: planned
                .plan
                .shard_boundary()
                .map_or(planned.plan.len(), |(g, _)| g),
            results_emitted: 0,
            collected: None,
        }
    }

    /// Total result rows emitted so far.
    pub fn results_emitted(&self) -> u64 {
        self.results_emitted
    }

    /// Input rows that reached the keyed suffix, across replicas.
    pub fn drained_records(&self) -> u64 {
        self.replicas.iter().map(|r| r.drained_records).sum()
    }

    /// Modelled compute charged to the keyed suffix stages, µs, across
    /// replicas.
    pub fn suffix_usage_us(&self) -> f64 {
        self.replicas.iter().map(|r| r.usage_us).sum()
    }

    /// Enables retention of result rows for exactness fingerprinting.
    pub fn set_collect_results(&mut self, on: bool) {
        self.collected = if on { Some(Vec::new()) } else { None };
    }

    /// Retained result batches, when collection is enabled.
    pub fn collected_results(&self) -> Option<&[Batch]> {
        self.collected.as_deref()
    }

    fn collect_batch(collected: &mut Option<Vec<Batch>>, batch: Batch) {
        if let Some(batches) = collected {
            batches.push(batch);
        }
    }

    /// Delivers an uplink payload from `source` that finished its transfer
    /// at `arrival_secs`.
    ///
    /// # Panics
    ///
    /// On a `ShardBatch` / `ShardState` payload: shard traffic only travels
    /// between the live tier's SP nodes.
    pub fn deliver(&mut self, source: usize, payload: NetPayload, arrival_secs: f64) {
        let replica = &mut self.replicas[source];
        match payload {
            NetPayload::Records { stage, batch } => {
                if batch.is_empty() {
                    return;
                }
                let stage = stage.min(replica.ops.len());
                if stage >= self.boundary {
                    replica.drained_records += batch.len() as u64;
                }
                replica.queues[stage].push_back(Item {
                    batch,
                    arrived: arrival_secs,
                    kind: ItemKind::Input,
                });
            }
            NetPayload::StateDelta { stage, delta } => {
                let cost = MERGE_COST_PER_ENTRY_US * delta.entry_count() as f64;
                self.node.charge_upto(cost);
                // A stateless op cannot own mergeable state; the default
                // merge hook ignores it.
                if let Some(op) = replica.ops.get_mut(stage) {
                    op.merge_state(delta);
                }
            }
            NetPayload::ShardBatch { .. } | NetPayload::ShardState { .. } => {
                unreachable!("shard traffic travels between live SP nodes only")
            }
        }
    }

    /// Processes queued arrivals through the replica chains within the
    /// node's remaining epoch budget. Returns input-record completions.
    fn process_queued(&mut self, epoch_start_us: Ts) -> Vec<SpCompletion> {
        let mut completions = Vec::new();
        let epoch_start_s = epoch_start_us as f64 / 1e6;
        let SpEngine {
            node,
            replicas,
            boundary,
            collected,
            results_emitted,
        } = self;
        let boundary = *boundary;

        // Active-set sweep: at 10k-source fan-in most replicas are idle in
        // any given pass (nothing queued, or their budget share is spent),
        // and a visit to an idle replica is a pure no-op — so each pass
        // iterates a worklist of replicas that still hold queued items
        // instead of rescanning every replica × stage. Processing one
        // replica never enqueues into another, so the set only shrinks
        // within a call; `deliver` refills it between calls. Worklist order
        // stays ascending, keeping completion order identical to the full
        // scan.
        let mut active: Vec<usize> = (0..replicas.len())
            .filter(|&i| replicas[i].has_pending())
            .collect();
        let mut routed: Vec<Item> = Vec::new();
        'outer: loop {
            let mut progressed = false;
            let mut still_pending: Vec<usize> = Vec::with_capacity(active.len());
            for &source in &active {
                let replica = &mut replicas[source];
                let n_stages = replica.ops.len();
                for stage in 0..n_stages {
                    routed.clear();
                    let fits = process_stage(
                        node,
                        replica.ops[stage].as_mut(),
                        &mut replica.queues[stage],
                        source,
                        epoch_start_s,
                        &mut completions,
                        &mut routed,
                        &mut progressed,
                        (stage >= boundary).then_some(&mut replica.usage_us),
                    );
                    for item in routed.drain(..) {
                        replica.forward(boundary, stage + 1, item);
                    }
                    if !fits {
                        break 'outer;
                    }
                }
                // Batches that traversed the whole chain.
                while let Some(item) = replica.queues[n_stages].pop_front() {
                    match item.kind {
                        ItemKind::WindowResult => {
                            *results_emitted += item.batch.len() as u64;
                            Self::collect_batch(collected, item.batch);
                        }
                        ItemKind::DeltaResult => {
                            *results_emitted += item.batch.len() as u64;
                        }
                        ItemKind::Input => {
                            // Stateless-tail input rows: completing the
                            // chain is both their completion and a query
                            // result.
                            for &ts in &item.batch.timestamps {
                                completions.push(SpCompletion {
                                    source,
                                    ts,
                                    completed_s: item.arrived.max(epoch_start_s),
                                });
                            }
                            *results_emitted += item.batch.len() as u64;
                            Self::collect_batch(collected, item.batch);
                        }
                    }
                    progressed = true;
                }
                if replica.has_pending() {
                    still_pending.push(source);
                }
            }
            active = still_pending;
            if !progressed || active.is_empty() {
                break;
            }
        }
        completions
    }

    /// Advances event time with a [`calibration::LATENCY_BOUND_SECS`]
    /// lateness allowance so slow drained records still find their windows
    /// open (watermark replication on the drain path, §V). Window results
    /// cascade down the rest of their replica's chain.
    fn advance_time(&mut self, epoch_start_us: Ts) {
        let epoch_end_us = epoch_start_us + (calibration::EPOCH_SECS * 1e6) as Ts;
        let wm = epoch_end_us - (calibration::LATENCY_BOUND_SECS * 1e6) as Ts;
        let epoch_start_s = epoch_start_us as f64 / 1e6;
        let arrived = epoch_start_s + calibration::EPOCH_SECS;
        let SpEngine {
            replicas,
            boundary,
            collected,
            results_emitted,
            ..
        } = self;
        let mut wm_out: Vec<Batch> = Vec::new();
        for replica in replicas.iter_mut() {
            let n_stages = replica.ops.len();
            for stage in 0..n_stages {
                for (hook, kind) in [(0, ItemKind::WindowResult), (1, ItemKind::DeltaResult)] {
                    wm_out.clear();
                    if hook == 0 {
                        replica.ops[stage].on_watermark(wm, &mut wm_out);
                    } else {
                        replica.ops[stage].on_epoch(&mut wm_out);
                    }
                    for out in wm_out.drain(..) {
                        if stage >= *boundary && stage + 1 == n_stages {
                            // Final-stage emissions are query results.
                            *results_emitted += out.len() as u64;
                            if kind == ItemKind::WindowResult {
                                Self::collect_batch(collected, out);
                            }
                        } else {
                            replica.forward(
                                *boundary,
                                stage + 1,
                                Item {
                                    batch: out,
                                    arrived,
                                    kind,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    /// Runs one SP epoch: opens the epoch on the CPU budget, processes
    /// queued arrivals within it, then advances event time. Returns
    /// input-record completions.
    pub fn run_epoch(&mut self, epoch_start_us: Ts) -> Vec<SpCompletion> {
        self.node.begin_epoch(calibration::EPOCH_SECS);
        let completions = self.process_queued(epoch_start_us);
        self.advance_time(epoch_start_us);
        completions
    }

    /// End-of-run flush: processes every queued batch (no budget limit),
    /// then closes every remaining window and runs the emissions through
    /// the rest of the chain inline (the flush shared by all backends), so
    /// retained results cover the whole stream. Used for exactness
    /// fingerprinting; per-epoch throughput accounting is unaffected (the
    /// measurement window has already ended).
    pub fn finalize(&mut self) {
        let SpEngine {
            replicas,
            boundary,
            collected,
            results_emitted,
            ..
        } = self;
        let mut out_buf: Vec<Batch> = Vec::new();
        for replica in replicas.iter_mut() {
            let n = replica.ops.len();
            for stage in 0..n {
                while let Some(item) = replica.queues[stage].pop_front() {
                    replica.ops[stage].process_batch(item.batch, &mut out_buf);
                    for out in out_buf.drain(..) {
                        replica.forward(
                            *boundary,
                            stage + 1,
                            Item {
                                batch: out,
                                arrived: item.arrived,
                                kind: item.kind,
                            },
                        );
                    }
                }
            }
            while let Some(item) = replica.queues[n].pop_front() {
                *results_emitted += item.batch.len() as u64;
                if item.kind != ItemKind::DeltaResult {
                    Self::collect_batch(collected, item.batch);
                }
            }
        }
        // Window close, after every replica's queues have drained.
        for replica in replicas.iter_mut() {
            for batch in streamkit::physical::drain_windows(
                &mut replica.ops[*boundary..],
                streamkit::time::TS_MAX,
            ) {
                *results_emitted += batch.len() as u64;
                Self::collect_batch(collected, batch);
            }
        }
    }
}
