//! The stream-processor engine — batch-first, key-sharded, and (since the
//! multi-node scale-out) one *node* of an [`SpCluster`].
//!
//! Each data source has a replica of the planned query at the SP (paper
//! Fig. 5), structured around the plan's *keyed boundary* (the first
//! stateful operator):
//!
//! * the stateless **prefix** runs as one chain per replica — drained
//!   batches enter at the operator they were drained in front of, on the
//!   source's *ingress node*;
//! * at the boundary, the shared routing policy
//!   ([`Ring`], the one the live tiers use) splits
//!   every batch over the fixed ring of `n_shards` virtual shards by key
//!   hash.
//!   Each engine instance owns a contiguous ring slice
//!   ([`shards_of_node`]) and hosts one
//!   **shard pipeline** per owned shard per replica; sub-batches, shipped
//!   [`StatePartial`] splits, and (in principle) window results whose owning
//!   shard is remote leave through the engine's **outbox** as
//!   [`NetPayload::ShardBatch`] / [`NetPayload::ShardState`] payloads for
//!   the cluster to transfer — never through in-process channels.
//!
//! Rows with equal group keys always land on the same shard regardless of
//! the node count (the key → shard mapping is node-count-independent), and
//! shipped state entries route to the shard owning their key (the same
//! `Ring`) — so window results stay exact: a group's whole
//! lifetime (updates, merged partials, close) happens on one shard, and the
//! union over shards ≡ the unsharded run at any node count.
//!
//! `n_shards = 1` on a single node reproduces the unsharded replica chains
//! exactly. Each node's cores are its own [`CpuBudget`]; per-shard drain,
//! usage, and outbound wire bytes feed [`SpEngine::shard_stats`] /
//! [`SpEngine::shard_wire_out`].
//!
//! Throughput accounting distinguishes the *input domain* (drained source
//! rows still being processed — their terminal events complete the input
//! work) from the *result domain* (rows emitted by aggregations — query
//! output, never double-counted as input completions).
//!
//! [`SpCluster`]: crate::engine::cluster::SpCluster

use std::collections::VecDeque;
use std::ops::Range;

use simnet::{CpuBudget, Node, NodeId};
use streamkit::batch::{Batch, DictVersions};
use streamkit::ops::{absorbed_timestamps, AggRole, Operator, StatePartial};
use streamkit::physical::{build_pipeline, CostProfile};
use streamkit::record::Record;
use streamkit::shard::{shards_of_node, Ring};
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

/// One keyed shard pipeline: the stateful boundary operator and the rest of
/// the chain, owning a disjoint slice of the replica's key space.
struct ShardPipeline {
    stages: Vec<Box<dyn Operator>>,
    /// Arrival queues, one per stage, plus a final slot for batches that
    /// completed the whole chain.
    queues: Vec<VecDeque<Item>>,
    /// Input rows routed into this shard (drain share).
    drained_records: u64,
    /// Modelled compute charged to this shard, µs.
    usage_us: f64,
}

/// Per-source replica: stateless prefix + keyed shard pipelines for the
/// shards this node owns.
struct Replica {
    prefix: Vec<Box<dyn Operator>>,
    /// Arrival queues, one per prefix stage.
    prefix_queues: Vec<VecDeque<Item>>,
    /// Pipelines for the owned ring slice, indexed by `shard - owned.start`.
    shards: Vec<ShardPipeline>,
}

impl Replica {
    fn suffix_len(&self) -> usize {
        self.shards.first().map_or(0, |s| s.stages.len())
    }

    /// Whether any queue still holds work: a prefix stage queue, a shard
    /// stage queue, or a shard's terminal slot (whose drain is itself a
    /// processing step). Drives the active-set sweep in
    /// [`SpEngine::process_queued`].
    fn has_pending(&self) -> bool {
        self.prefix_queues.iter().any(|q| !q.is_empty())
            || self
                .shards
                .iter()
                .any(|s| s.queues.iter().any(|q| !q.is_empty()))
    }
}

/// Where this node sits on the fixed shard ring and where outbound payloads
/// accumulate — everything the routing helpers need besides the replica.
struct RingCtx {
    /// The ring-wide key → shard policy (group-key columns at the boundary
    /// edge; empty when the plan has no keyed operator, and everything then
    /// routes to shard 0).
    ring: Ring,
    /// The contiguous ring slice this node owns.
    owned: Range<usize>,
    /// Epochs begun so far (stamped on outbound payloads).
    epoch: u64,
    /// Payloads bound for shards on other nodes, with the virtual time they
    /// were produced.
    outbox: Vec<(NetPayload, f64)>,
    /// Wire bytes shipped toward each (remote) shard, `n_shards` wide.
    shard_wire_out: Vec<u64>,
    /// Persistent-dict versions already shipped toward each shard stream,
    /// `n_shards` wide: outbound accounting charges the dictionary *delta*
    /// (plus codes) instead of re-charging the full page per batch, exactly
    /// what a delta-aware link ships. Reset on recovery so a re-seeded
    /// receiver is re-charged the full history.
    dict_sync: Vec<DictVersions>,
}

/// Routes a batch entering at suffix stage `rel` to its shard(s) as the
/// [`Ring`] splits it. Parts owned by this node queue on their shard
/// pipeline; parts owned by a remote node leave through the outbox as
/// [`NetPayload::ShardBatch`], charging wire accounting per target shard.
fn route_to_shards(
    replica: &mut Replica,
    source: usize,
    batch: Batch,
    rel: usize,
    arrived: f64,
    kind: ItemKind,
    ring: &mut RingCtx,
) {
    for (s, part) in ring.ring.split_batch(rel, batch) {
        if ring.owned.contains(&s) {
            let shard = &mut replica.shards[s - ring.owned.start];
            if kind == ItemKind::Input {
                shard.drained_records += part.len() as u64;
            }
            shard.queues[rel].push_back(Item {
                batch: part,
                arrived,
                kind,
            });
            continue;
        }
        // Only input-domain batches cross nodes today: the prefix is
        // stateless (its watermark/epoch hooks emit nothing), and window
        // results cascade within their owning shard. `ShardBatch` carries no
        // item kind, so the receiver re-labels everything `Input` — a result
        // batch crossing here would silently corrupt the input/result
        // domain split, which is why this is a hard assert.
        assert_eq!(kind, ItemKind::Input, "result batch crossing nodes");
        ring.shard_wire_out[s] += part.wire_size_versioned(&mut ring.dict_sync[s]) as u64;
        ring.outbox.push((
            NetPayload::ShardBatch {
                shard: s as u32,
                epoch: ring.epoch,
                source: source as u32,
                rel: rel as u32,
                batch: part,
            },
            arrived,
        ));
    }
}

/// Merges a shipped state delta into the owning shard(s) at suffix stage
/// `rel`: the [`Ring`] splits the entries by the shard owning their group
/// key — the same mapping it applies to rows — and remote splits leave
/// through the outbox as [`NetPayload::ShardState`].
fn merge_sharded(
    replica: &mut Replica,
    source: usize,
    rel: usize,
    delta: StatePartial,
    ring: &mut RingCtx,
) {
    if rel >= replica.suffix_len() {
        return;
    }
    for (s, split) in ring.ring.split_state(delta) {
        if ring.owned.contains(&s) {
            replica.shards[s - ring.owned.start].stages[rel].merge_state(split);
            continue;
        }
        ring.shard_wire_out[s] += split.wire_bytes() as u64;
        ring.outbox.push((
            NetPayload::ShardState {
                shard: s as u32,
                epoch: ring.epoch,
                source: source as u32,
                rel: rel as u32,
                delta: split,
            },
            // State merges have no processing timestamp of their own;
            // they apply on arrival.
            0.0,
        ));
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

/// Per-shard drain/usage/wire counters, aggregated across replicas.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpShardStat {
    /// Input rows routed into the shard.
    pub drained_records: u64,
    /// Modelled compute charged to the shard's stages, µs.
    pub usage_us: f64,
    /// Wire bytes shipped across nodes toward this shard (charged at the
    /// sending node, from the `batch::layout` accounting).
    pub wire_bytes_out: u64,
}

/// One SP node: replicas of the planned query restricted to the node's ring
/// slice, plus the outbox carrying remote-shard payloads.
pub struct SpEngine {
    node: Node,
    node_id: usize,
    n_nodes: usize,
    /// Ring geometry, ownership and the outbox for remote-shard payloads.
    ring: RingCtx,
    replicas: Vec<Replica>,
    epoch_secs: f64,
    results_emitted: u64,
    lateness_secs: f64,
    /// Retained result rows (window closes and stateless-tail completions),
    /// when result collection is enabled for exactness fingerprinting.
    collected: Option<Vec<Record>>,
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
    epoch_secs: f64,
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
        let completed_s = (epoch_start_s + node.epoch_utilisation() * epoch_secs).max(item.arrived);
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
    /// Builds a single-node SP hosting `n_sources` replicas of the planned
    /// query, each split into `n_shards` keyed shard pipelines at the plan's
    /// stateful boundary (`n_shards = 1` is the unsharded chain). The node
    /// owns the whole ring.
    pub fn new(
        planned: &PlannedQuery,
        costs: &CostProfile,
        n_sources: usize,
        sp_cores: f64,
        epoch_secs: f64,
        n_shards: usize,
    ) -> SpEngine {
        SpEngine::for_node(
            planned, costs, n_sources, sp_cores, epoch_secs, n_shards, 0, 1,
        )
    }

    /// Builds one node of an SP cluster: the engine hosts pipelines only for
    /// the ring slice `shards_of_node(node_id, n_shards, n_nodes)` and ships
    /// remote-shard traffic through its outbox. Keyless plans degenerate to
    /// a single shard on a single node (there is nothing to partition by).
    #[allow(clippy::too_many_arguments)]
    pub fn for_node(
        planned: &PlannedQuery,
        costs: &CostProfile,
        n_sources: usize,
        sp_cores: f64,
        epoch_secs: f64,
        n_shards: usize,
        node_id: usize,
        n_nodes: usize,
    ) -> SpEngine {
        let boundary = planned.plan.shard_boundary();
        // Without a keyed operator there is nothing to partition by; the
        // whole (stateless) chain runs as the prefix of a single shard.
        let (n_shards, n_nodes, node_id) = if boundary.is_some() {
            (n_shards.max(1), n_nodes.max(1), node_id)
        } else {
            (1, 1, 0)
        };
        assert!(
            n_nodes <= n_shards,
            "{n_nodes} nodes cannot split a {n_shards}-shard ring"
        );
        let owned = shards_of_node(node_id, n_shards, n_nodes);
        let (g, shard_keys) = match &boundary {
            Some((g, keys)) => (*g, keys.clone()),
            None => (planned.plan.len(), Vec::new()),
        };
        let mut replicas = Vec::with_capacity(n_sources);
        for _ in 0..n_sources {
            let mut prefix =
                build_pipeline(&planned.plan, costs, AggRole::Final).expect("validated plan");
            let _ = prefix.split_off(g);
            let prefix_queues = (0..prefix.len()).map(|_| VecDeque::new()).collect();
            let shards = owned
                .clone()
                .map(|_| {
                    let mut ops = build_pipeline(&planned.plan, costs, AggRole::Final)
                        .expect("validated plan");
                    let stages = ops.split_off(g);
                    let queues = (0..=stages.len()).map(|_| VecDeque::new()).collect();
                    ShardPipeline {
                        stages,
                        queues,
                        drained_records: 0,
                        usage_us: 0.0,
                    }
                })
                .collect();
            replicas.push(Replica {
                prefix,
                prefix_queues,
                shards,
            });
        }
        SpEngine {
            node: Node::new(
                NodeId(node_id as u32),
                CpuBudget::fraction(sp_cores),
                0.0,
                7,
            ),
            node_id,
            n_nodes,
            ring: RingCtx {
                ring: Ring::new(n_shards, shard_keys),
                owned,
                epoch: 0,
                outbox: Vec::new(),
                shard_wire_out: vec![0; n_shards],
                dict_sync: vec![DictVersions::new(); n_shards],
            },
            replicas,
            epoch_secs,
            results_emitted: 0,
            lateness_secs: calibration::LATENCY_BOUND_SECS,
            collected: None,
        }
    }

    /// Forgets which dictionary versions were already charged toward every
    /// shard stream: the next outbound batch per stream is re-charged its
    /// full dictionary history. Recovery calls this when a receiver restarts
    /// or shards are reassigned, mirroring the full-page re-handshake a
    /// delta-aware link performs after losing its peer's mirror state.
    pub fn reset_dict_sync(&mut self) {
        for link in &mut self.ring.dict_sync {
            link.clear();
        }
    }

    /// Total result rows emitted so far.
    pub fn results_emitted(&self) -> u64 {
        self.results_emitted
    }

    /// Width of the fixed virtual-shard ring (cluster-global).
    pub fn n_shards(&self) -> usize {
        self.ring.ring.n_shards()
    }

    /// This node's id within its cluster.
    pub fn node_id(&self) -> usize {
        self.node_id
    }

    /// Nodes in the cluster this engine belongs to.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The contiguous ring slice this node owns.
    pub fn owned_shards(&self) -> Range<usize> {
        self.ring.owned.clone()
    }

    /// Drain/usage counters for the *owned* shards (in ring order),
    /// aggregated across replicas. Wire bytes stay zero here — shipping is
    /// charged at the sender per target shard; see
    /// [`SpEngine::shard_wire_out`].
    pub fn shard_stats(&self) -> Vec<SpShardStat> {
        let mut stats = vec![SpShardStat::default(); self.ring.owned.len()];
        for replica in &self.replicas {
            for (stat, shard) in stats.iter_mut().zip(&replica.shards) {
                stat.drained_records += shard.drained_records;
                stat.usage_us += shard.usage_us;
            }
        }
        stats
    }

    /// Wire bytes this node shipped toward each shard of the ring (remote
    /// targets only), `n_shards` wide.
    pub fn shard_wire_out(&self) -> &[u64] {
        &self.ring.shard_wire_out
    }

    /// Enables retention of result rows for exactness fingerprinting.
    pub fn set_collect_results(&mut self, on: bool) {
        self.collected = if on { Some(Vec::new()) } else { None };
    }

    /// Retained result rows, when collection is enabled.
    pub fn collected_results(&self) -> Option<&[Record]> {
        self.collected.as_deref()
    }

    fn collect_batch(collected: &mut Option<Vec<Record>>, batch: &Batch) {
        if let Some(rows) = collected {
            rows.extend(batch.to_records());
        }
    }

    /// The SP node (budget inspection).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Rows still queued (delivered but unprocessed).
    pub fn backlog_records(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| {
                let prefix: usize = r
                    .prefix_queues
                    .iter()
                    .flat_map(|q| q.iter())
                    .map(|i| i.batch.len())
                    .sum();
                let shards: usize = r
                    .shards
                    .iter()
                    .flat_map(|s| s.queues.iter())
                    .flat_map(|q| q.iter())
                    .map(|i| i.batch.len())
                    .sum();
                prefix + shards
            })
            .sum()
    }

    /// Payloads bound for other nodes, produced since the last take. Each is
    /// paired with the virtual time it was produced.
    pub fn take_outbound(&mut self) -> Vec<(NetPayload, f64)> {
        std::mem::take(&mut self.ring.outbox)
    }

    /// Delivers a payload that finished its transfer at `arrival_secs`:
    /// uplink traffic from `source`, or inter-node shard traffic (whose
    /// source is carried in the payload).
    pub fn deliver(&mut self, source: usize, payload: NetPayload, arrival_secs: f64) {
        let SpEngine {
            node,
            node_id,
            replicas,
            ring,
            ..
        } = self;
        let owned = &ring.owned;
        match payload {
            NetPayload::Records { stage, batch } => {
                if batch.is_empty() {
                    return;
                }
                let replica = &mut replicas[source];
                let g = replica.prefix.len();
                let stage = stage.min(g + replica.suffix_len());
                if stage < g {
                    replica.prefix_queues[stage].push_back(Item {
                        batch,
                        arrived: arrival_secs,
                        kind: ItemKind::Input,
                    });
                } else {
                    route_to_shards(
                        replica,
                        source,
                        batch,
                        stage - g,
                        arrival_secs,
                        ItemKind::Input,
                        ring,
                    );
                }
            }
            NetPayload::StateDelta { stage, delta } => {
                let cost = MERGE_COST_PER_ENTRY_US * delta.entry_count() as f64;
                node.charge_upto(cost);
                let replica = &mut replicas[source];
                let g = replica.prefix.len();
                if stage < g {
                    // A stateless prefix op cannot own mergeable state; the
                    // default merge hook ignores it.
                    replica.prefix[stage].merge_state(delta);
                } else {
                    merge_sharded(replica, source, stage - g, delta, ring);
                }
            }
            NetPayload::ShardBatch {
                shard,
                source,
                rel,
                batch,
                ..
            } => {
                if batch.is_empty() {
                    return;
                }
                let shard = shard as usize;
                assert!(
                    owned.contains(&shard),
                    "shard {shard} delivered to node {node_id} owning {owned:?}"
                );
                let replica = &mut replicas[source as usize];
                let local = &mut replica.shards[shard - owned.start];
                // `rel == stages.len()` is the terminal queue (fully
                // source-processed rows); anything past it never came from
                // a routing helper or the wire codec (which bounds `rel` by
                // its schema table), so don't clamp it into the results.
                let rel = rel as usize;
                assert!(
                    rel <= local.stages.len(),
                    "ShardBatch rel {rel} past suffix length {}",
                    local.stages.len()
                );
                local.drained_records += batch.len() as u64;
                local.queues[rel].push_back(Item {
                    batch,
                    arrived: arrival_secs,
                    kind: ItemKind::Input,
                });
            }
            NetPayload::ShardState {
                shard,
                source,
                rel,
                delta,
                ..
            } => {
                let cost = MERGE_COST_PER_ENTRY_US * delta.entry_count() as f64;
                node.charge_upto(cost);
                let shard = shard as usize;
                assert!(
                    owned.contains(&shard),
                    "shard {shard} delivered to node {node_id} owning {owned:?}"
                );
                let replica = &mut replicas[source as usize];
                let local = &mut replica.shards[shard - owned.start];
                let rel = rel as usize;
                if rel < local.stages.len() {
                    local.stages[rel].merge_state(delta);
                }
            }
        }
    }

    /// Opens a new epoch on this node's CPU budget. The cluster calls this
    /// once per epoch before any processing pass.
    pub fn begin_epoch(&mut self) {
        self.node.begin_epoch(self.epoch_secs);
        self.ring.epoch += 1;
    }

    /// Processes queued arrivals through the replica prefixes and owned
    /// shard pipelines within the node's remaining epoch budget. Callable
    /// multiple times per epoch — the cluster re-enters after transferring
    /// inter-node payloads so remote shard traffic is processed in the same
    /// epoch it was produced (budget permitting), matching single-node
    /// timing. Returns input-record completions.
    pub fn process_queued(&mut self, epoch_start_us: Ts) -> Vec<SpCompletion> {
        let mut completions = Vec::new();
        let epoch_start_s = epoch_start_us as f64 / 1e6;
        let SpEngine {
            node,
            replicas,
            ring,
            collected,
            results_emitted,
            epoch_secs,
            ..
        } = self;

        // Active-set sweep: at 10k-source fan-in most replicas are idle in
        // any given pass (nothing queued, or their budget share is spent),
        // and a visit to an idle replica is a pure no-op — so each pass
        // iterates a worklist of replicas that still hold queued items
        // instead of rescanning every replica × stage. Processing one
        // replica never enqueues into another (cross-replica traffic leaves
        // via the outbox), so the set only shrinks within a call; `deliver`
        // refills it between calls. Worklist order stays ascending, keeping
        // completion/outbox order identical to the full scan.
        let mut active: Vec<usize> = (0..replicas.len())
            .filter(|&i| replicas[i].has_pending())
            .collect();
        let mut routed: Vec<Item> = Vec::new();
        'outer: loop {
            let mut progressed = false;
            let mut still_pending: Vec<usize> = Vec::with_capacity(active.len());
            for &source in &active {
                let replica = &mut replicas[source];
                // Stateless prefix.
                let g = replica.prefix.len();
                for stage in 0..g {
                    routed.clear();
                    let fits = process_stage(
                        node,
                        replica.prefix[stage].as_mut(),
                        &mut replica.prefix_queues[stage],
                        source,
                        epoch_start_s,
                        *epoch_secs,
                        &mut completions,
                        &mut routed,
                        &mut progressed,
                        None,
                    );
                    for item in routed.drain(..) {
                        if stage + 1 < g {
                            replica.prefix_queues[stage + 1].push_back(item);
                        } else {
                            route_to_shards(
                                replica,
                                source,
                                item.batch,
                                0,
                                item.arrived,
                                item.kind,
                                ring,
                            );
                        }
                    }
                    if !fits {
                        break 'outer;
                    }
                }
                // Keyed shard pipelines (owned ring slice).
                let n_stages = replica.suffix_len();
                for shard in &mut replica.shards {
                    for stage in 0..n_stages {
                        routed.clear();
                        let fits = process_stage(
                            node,
                            shard.stages[stage].as_mut(),
                            &mut shard.queues[stage],
                            source,
                            epoch_start_s,
                            *epoch_secs,
                            &mut completions,
                            &mut routed,
                            &mut progressed,
                            Some(&mut shard.usage_us),
                        );
                        for item in routed.drain(..) {
                            shard.queues[stage + 1].push_back(item);
                        }
                        if !fits {
                            break 'outer;
                        }
                    }
                    // Batches that traversed the whole chain.
                    while let Some(item) = shard.queues[n_stages].pop_front() {
                        match item.kind {
                            ItemKind::WindowResult => {
                                Self::collect_batch(collected, &item.batch);
                                *results_emitted += item.batch.len() as u64;
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
                                Self::collect_batch(collected, &item.batch);
                                *results_emitted += item.batch.len() as u64;
                            }
                        }
                        progressed = true;
                    }
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

    /// Advances event time with a lateness allowance so slow drained records
    /// still find their windows open (watermark replication on the drain
    /// path, §V). Window results emitted at the boundary stay on the shard
    /// that owns their keys — they cascade down that shard's own suffix,
    /// never crossing shards (or nodes).
    pub fn advance_time(&mut self, epoch_start_us: Ts) {
        let epoch_end_us = epoch_start_us + (self.epoch_secs * 1e6) as Ts;
        let wm = epoch_end_us - (self.lateness_secs * 1e6) as Ts;
        let epoch_start_s = epoch_start_us as f64 / 1e6;
        let arrived = epoch_start_s + self.epoch_secs;
        let SpEngine {
            replicas,
            ring,
            collected,
            results_emitted,
            ..
        } = self;
        let mut wm_out: Vec<Batch> = Vec::new();
        for (source, replica) in replicas.iter_mut().enumerate() {
            let g = replica.prefix.len();
            for stage in 0..g {
                for (hook, kind) in [(0, ItemKind::WindowResult), (1, ItemKind::DeltaResult)] {
                    wm_out.clear();
                    if hook == 0 {
                        replica.prefix[stage].on_watermark(wm, &mut wm_out);
                    } else {
                        replica.prefix[stage].on_epoch(&mut wm_out);
                    }
                    for out in wm_out.drain(..) {
                        if stage + 1 < g {
                            replica.prefix_queues[stage + 1].push_back(Item {
                                batch: out,
                                arrived,
                                kind,
                            });
                        } else {
                            route_to_shards(replica, source, out, 0, arrived, kind, ring);
                        }
                    }
                }
            }
            let n_stages = replica.suffix_len();
            for shard in &mut replica.shards {
                for stage in 0..n_stages {
                    for (hook, kind) in [(0, ItemKind::WindowResult), (1, ItemKind::DeltaResult)] {
                        wm_out.clear();
                        if hook == 0 {
                            shard.stages[stage].on_watermark(wm, &mut wm_out);
                        } else {
                            shard.stages[stage].on_epoch(&mut wm_out);
                        }
                        for out in wm_out.drain(..) {
                            if stage + 1 < n_stages {
                                shard.queues[stage + 1].push_back(Item {
                                    batch: out,
                                    arrived,
                                    kind,
                                });
                            } else {
                                // Final-stage emissions are query results.
                                if kind == ItemKind::WindowResult {
                                    Self::collect_batch(collected, &out);
                                }
                                *results_emitted += out.len() as u64;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Runs one SP epoch on a *single-node* deployment: processes queued
    /// arrivals within the core budget, then advances event time. Clusters
    /// drive the three phases separately so inter-node payloads can transfer
    /// between processing passes. Returns input-record completions.
    pub fn run_epoch(&mut self, epoch_start_us: Ts) -> Vec<SpCompletion> {
        self.begin_epoch();
        let completions = self.process_queued(epoch_start_us);
        self.advance_time(epoch_start_us);
        completions
    }

    /// End-of-run flush, pass 1: processes every queued batch (no budget
    /// limit) through prefixes and owned shard pipelines. Remote-shard
    /// traffic produced while flushing lands in the outbox — the cluster
    /// alternates flush passes with transfers until the outboxes run dry.
    pub fn flush_queues(&mut self) {
        let SpEngine {
            replicas,
            ring,
            collected,
            results_emitted,
            ..
        } = self;
        for (source, replica) in replicas.iter_mut().enumerate() {
            // Flush the prefix forward into the shard partitioner.
            let g = replica.prefix.len();
            for stage in 0..g {
                let mut out_buf: Vec<Batch> = Vec::new();
                while let Some(item) = replica.prefix_queues[stage].pop_front() {
                    out_buf.clear();
                    replica.prefix[stage].process_batch(item.batch, &mut out_buf);
                    for out in out_buf.drain(..) {
                        if stage + 1 < g {
                            replica.prefix_queues[stage + 1].push_back(Item {
                                batch: out,
                                arrived: item.arrived,
                                kind: item.kind,
                            });
                        } else {
                            route_to_shards(replica, source, out, 0, item.arrived, item.kind, ring);
                        }
                    }
                }
            }
            // Flush each owned shard pipeline.
            for shard in &mut replica.shards {
                let n = shard.stages.len();
                for stage in 0..n {
                    let mut out_buf: Vec<Batch> = Vec::new();
                    while let Some(item) = shard.queues[stage].pop_front() {
                        out_buf.clear();
                        shard.stages[stage].process_batch(item.batch, &mut out_buf);
                        for out in out_buf.drain(..) {
                            shard.queues[stage + 1].push_back(Item {
                                batch: out,
                                arrived: item.arrived,
                                kind: item.kind,
                            });
                        }
                    }
                }
                while let Some(item) = shard.queues[n].pop_front() {
                    if item.kind != ItemKind::DeltaResult {
                        Self::collect_batch(collected, &item.batch);
                    }
                    *results_emitted += item.batch.len() as u64;
                }
            }
        }
    }

    /// End-of-run flush, pass 2: closes every remaining window on every
    /// owned shard and runs the emissions through the rest of the chain
    /// inline (the flush shared by all backends).
    pub fn close_windows(&mut self) {
        for replica in &mut self.replicas {
            for shard in &mut replica.shards {
                for batch in
                    streamkit::physical::drain_windows(&mut shard.stages, streamkit::time::TS_MAX)
                {
                    Self::collect_batch(&mut self.collected, &batch);
                    self.results_emitted += batch.len() as u64;
                }
            }
        }
    }

    /// End-of-run flush on a single-node deployment: queue flush + window
    /// close, so retained results cover the whole stream. Used for exactness
    /// fingerprinting; per-epoch throughput accounting is unaffected (the
    /// measurement window has already ended).
    pub fn finalize(&mut self) {
        self.flush_queues();
        debug_assert!(
            self.ring.outbox.is_empty(),
            "single-node flush produced outbound"
        );
        self.close_windows();
    }
}
