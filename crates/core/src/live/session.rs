//! An epoch-driven live session: task-scheduled, batch-first, key-sharded,
//! multi-node execution under runtime control.
//!
//! [`LiveSession`] keeps one source worker per data source alive across
//! epochs, and at every epoch boundary drives each source's
//! [`JarvisRuntime`] state machine (Startup → Probe → Profile → Adapt)
//! exactly like the emulated engine does — so adaptive strategies converge
//! over a *really concurrent* execution while partitioned results stay
//! exact (fixed strategies with pinned load factors run through the same
//! session). Sources generate columnar [`Batch`]es and the channels carry
//! batches end-to-end.
//!
//! Concurrency comes from the [`crate::rt`] cooperative task runtime, not
//! OS threads: every epoch spawns one **task** per source and one per
//! in-process SP node onto a work-stealing executor sized by the
//! `rt_workers` knob, connected by one bounded async channel per node of
//! [`rt::CHANNEL_CAPACITY`] messages. Node tasks drain through
//! [`crate::rt::chan::Receiver::recv_many`], so a burst of messages costs
//! one wakeup, not one per message — which is what lets thousands of
//! sources run on `num_cpus` worker threads (the repo benchmark's
//! `t2t_allsp_fanin` workload, 2048 sources, is the fan-in number).
//! Ownership moves with the epoch: each task takes its `Worker` or
//! `ShardHost` in by value and hands it back through its join handle; what
//! the tasks share is read-only (the plan, the ring, the channel senders).
//!
//! **Sources dispatch themselves**, as the paper's data sources do: there
//! is no stage between a source and the SP node pool. A source task does
//! the whole of its source's epoch (`Worker::run_epoch`): it generates its
//! batch, walks its proxies and source-side operators, and for every
//! drained chunk runs its own copy of the replica's SP-side stateless
//! prefix, asks the [`Ring`] which of the `sp_shards` virtual shards the
//! rows belong to, and sends each sub-batch to the SP node owning its shard
//! ([`node_of_shard`]) over that node's bounded channel — a channel that
//! emulates a network link: payloads whose owner is not the source's
//! ingress node cross it as **serialized** [`NetPayload::ShardBatch`] /
//! [`NetPayload::ShardState`] bytes ([`netwire`](crate::engine::netwire)),
//! decoded by the node's `ShardHost`, so a remote shard pipeline is
//! reachable through its wire form alone (location transparency);
//! ingress-local traffic skips the codec. Shipped
//! [`StatePartial`](streamkit::ops::StatePartial) entries split by the
//! shard owning their key through the same `Ring`, so a
//! group's whole lifetime happens on one shard and merged results are
//! bit-identical at any shard *and node* count (`tests/shard_parity.rs`,
//! `tests/node_parity.rs`). One task sends a source's frames in order over
//! one channel per node, so per-(source, shard) order — all exactness
//! needs, each shard keeps one pipeline per source — holds under any
//! schedule, and the frames themselves do not depend on which task encoded
//! them or when. Each in-process node is a `ShardHost` — the same type
//! `jarvis-node` serves behind a TCP link — so this module only decides
//! *where* a payload goes.
//!
//! **Windows close on the epoch watermark.** An epoch is a barrier: a node
//! task's channel closes when the last source task has finished the epoch,
//! so by the time it has drained it, every row and state delta stamped
//! before the epoch's end is in. As its last step of the epoch each node
//! task therefore advances event time to the epoch's end
//! (`ShardHost::advance`) with **zero allowed lateness** — there is no
//! knob, because nothing can be late (the emulated engine, whose drained
//! records ride a modelled network, keeps `LATENCY_BOUND_SECS` instead).
//! Windows the watermark closes leave operator state as result batches,
//! cascade down their shard's suffix and accumulate columnar in the host;
//! they become [`Record`]s once, in [`LiveSession::try_finish`], which has
//! only the last window left to drain. Live operator state is thus bounded by the windows still
//! open — [`LiveSession::open_groups`], [`LiveOutcome::peak_open_groups`] —
//! not by how long the session has run.
//!
//! Worker threads execute operators for real (state, joins, sketches); the
//! CPU *budget* is counterfactual, charged from the calibrated cost model:
//! an epoch whose modelled usage oversubscribes the budget classifies as
//! congested, one that undersubscribes with load factors left to raise
//! classifies as idle (the same rules as the §VI-C simulator). The same
//! counterfactual charging is recorded per shard (and rolled up per node)
//! on the SP side; cross-node shipping is charged per target shard at the
//! frames' actual encoded size — delta-aware for persistent dictionary
//! pages, which cross each link once and then resume as deltas across
//! batches *and epochs* — with each source's traffic entering at its
//! ingress node (`source % sp_nodes`). Classification itself stays
//! source-side today; feeding the slowest shard's budget back into
//! adaptation is a ROADMAP follow-on.
//! Profile epochs measure per-operator costs and relay ratios on a scratch
//! pipeline fed with the epoch's batch — reproducing the paper's
//! profile-on-a-sample bias — without disturbing live operator state.

use std::sync::Arc;

use bytes::Bytes;
use streamkit::batch::{Batch, DictVersions};
use streamkit::ops::{AggRole, Operator};
use streamkit::physical::build_pipeline;
use streamkit::record::Record;
use streamkit::shard::{node_of_shard, shards_of_node, Ring};

use crate::calibration;
use crate::deploy::{DeployError, DeploymentSpec, FaultIncident, TransportKind};
use crate::engine::block::EpochSource;
use crate::engine::netwire::encode_shard_payload_with;
use crate::engine::NetPayload;
use crate::experiment::T2tTables;
use crate::live::host::{epoch_end_watermark, ShardHost};
use crate::live::remote::RemoteCluster;
use crate::planner::PlannedQuery;
use crate::proxy::{ControlProxy, QueryState};
use crate::rt;
use crate::runtime::JarvisRuntime;
use crate::stepwise::ProfileEstimates;

/// What is fixed at [`LiveSession::new`] and read by every source task:
/// shared by `Arc`, never cloned per source or per epoch.
struct Topology {
    planned: PlannedQuery,
    /// Cost model of the plan's operators (scratch profiling).
    costs: streamkit::physical::CostProfile,
    /// The plan's input schema; generated batches are relabeled to it so
    /// wire accounting matches the emulated backend (trace replay infers
    /// column types).
    input_schema: streamkit::schema::SchemaRef,
    /// The fixed virtual-shard ring: key → shard routing policy.
    ring: Ring,
    /// SP nodes dividing the ring.
    n_nodes: usize,
    /// Index of the stateful boundary in the full chain.
    boundary: usize,
}

/// One epoch as its source tasks see it. The tasks hold the only handles
/// past spawning, so the sink — and with it every node channel — closes
/// when the last of them finishes.
struct Epoch {
    topo: Arc<Topology>,
    sink: LinkSink,
    epoch: u64,
    /// Event time at which the epoch starts, µs.
    now_us: i64,
}

/// Where shard payloads land: in-process node channels (cross-node payloads
/// travel as encoded wire frames, ingress-local ones as in-process values)
/// or the remote executors' TCP links.
enum LinkSink {
    /// Bounded async channels into the per-epoch node tasks.
    Channels(Vec<rt::chan::Sender<NodeMsg>>),
    /// The remote cluster (every payload is framed onto the shard owner's
    /// link through the cluster's recovery-aware routing table).
    Remote(Arc<RemoteCluster>),
}

/// One message on a node link: shard traffic whose owner is the sending
/// source's ingress node stays an in-process value (the PR-4 single-node
/// fast path — no link crossed, no codec paid), while genuine cross-node
/// hops travel as encoded wire frames.
enum NodeMsg {
    /// Ingress-local shard payload.
    Local(NetPayload),
    /// Cross-node shard payload in its inter-node wire form.
    Wire(Bytes),
}

/// A send found this node's channel closed: its task is gone mid-epoch.
#[derive(Debug, PartialEq, Eq)]
struct NodeGone(usize);

/// One data source and everything that is per-source: generator, proxies,
/// runtime, both halves of its replica's stateless work (the source-side
/// operators and the SP-side prefix its drained rows still owe), and the
/// sender state of its links to the SP nodes.
struct Worker {
    /// Index of this data source; its uplink terminates at SP node
    /// `source % n_nodes`, its ingress node.
    source: usize,
    ops: Vec<Box<dyn Operator>>,
    proxies: Vec<ControlProxy>,
    generator: Box<dyn EpochSource>,
    runtime: JarvisRuntime,
    /// Stateless prefix of the SP replica, up to the keyed boundary.
    sp_prefix: Vec<Box<dyn Operator>>,
    /// Per target node (in-process tier): the highest version of each of
    /// this source's persistent dictionaries already shipped there, so
    /// cross-node frames carry delta pages only — across batches *and*
    /// epochs. Per source is per link: a `StreamDict` has exactly one `&mut`
    /// owner (a generator or an operator instance, both owned by one
    /// `Worker`) and its id is drawn from the process-wide `NEXT_DICT_ID`,
    /// so no two sources ever ship the same dictionary and one map per
    /// link would be the disjoint union of these — same entries, same
    /// encoded bytes.
    dict_sync: Vec<DictVersions>,
    /// Cross-node wire bytes this source shipped toward each shard.
    shard_wire: Vec<u64>,
    /// Cross-node wire bytes this source shipped in all (charged to its
    /// ingress node).
    node_wire: u64,
    budget_us: f64,
    run_profile: bool,
    // Per-epoch measurements (reset each epoch).
    usage_us: f64,
    input_records: u64,
    input_bytes: u64,
    drained_records: u64,
    drained_bytes: u64,
    state_deltas: u64,
    profile: Option<ProfileEstimates>,
}

/// Where the SP node pool lives: in-process worker threads behind bounded
/// channels (the default), or remote `jarvis-node` executors behind real
/// TCP links. Both carry identical shard payloads, so results are
/// bit-identical across tiers.
enum SpTier {
    /// One [`ShardHost`] per node (index = node id), driven by per-epoch
    /// node tasks.
    InProcess(Vec<ShardHost>),
    /// Admitted remote executors (TCP transport); `Arc` so the source
    /// tasks can share the cluster's routing table for an epoch (their
    /// clone drops when the last one joins, restoring exclusive access).
    Remote(Arc<RemoteCluster>),
}

/// Final outcome of a live session.
#[derive(Debug)]
pub struct LiveOutcome {
    /// Merged result rows across all sources' replicas.
    pub results: Vec<Record>,
    /// Rows drained over the channels.
    pub drained_records: u64,
    /// Drained batch bytes.
    pub drained_bytes: f64,
    /// State deltas shipped.
    pub state_deltas: u64,
    /// Total rows generated.
    pub input_records: u64,
    /// Total input bytes generated.
    pub input_bytes: f64,
    /// Epochs executed.
    pub epochs: u64,
    /// Input rows routed into each SP shard (key-hash drain share).
    pub shard_drained_records: Vec<u64>,
    /// Counterfactual compute charged to each SP shard, µs.
    pub shard_usage_us: Vec<f64>,
    /// Wire bytes shipped across SP nodes toward each shard.
    pub shard_wire_bytes: Vec<u64>,
    /// Input rows routed into each SP node's owned shards.
    pub node_drained_records: Vec<u64>,
    /// Counterfactual compute charged to each SP node, µs.
    pub node_usage_us: Vec<f64>,
    /// Wire bytes each SP node (as ingress) shipped to other nodes.
    pub node_wire_bytes: Vec<u64>,
    /// Node losses and how each was resolved (TCP tier only; empty for
    /// in-process sessions, which cannot lose nodes).
    pub incidents: Vec<FaultIncident>,
    /// Checkpoint + replay bytes re-shipped for recovery.
    pub replay_bytes: u64,
    /// Heartbeat pings the coordinator sent while awaiting epoch acks.
    pub heartbeats_sent: u64,
    /// Fraction of epochs each shard's results cover (1.0 unless shards
    /// were degraded away by [`OnNodeLoss::Degrade`](crate::deploy::OnNodeLoss)).
    pub shard_completeness: Vec<f64>,
    /// Most groups the SP tier held in open windows at any epoch barrier
    /// (just before the barrier closed what it could); see
    /// [`LiveSession::open_groups`]. `None` on the TCP tier.
    pub peak_open_groups: Option<usize>,
}

/// A threaded deployment advanced epoch by epoch.
pub struct LiveSession {
    topo: Arc<Topology>,
    workers: Vec<Worker>,
    /// The SP node pool; each node owns a contiguous slice of the ring.
    tier: SpTier,
    /// The cooperative task runtime every epoch's source and node tasks
    /// run on. Lives as long as the session, so worker threads spawn once,
    /// not per epoch.
    rt: rt::Runtime,
    /// Scheduled resource changes, applied at epoch starts.
    events: Vec<crate::experiment::ResourceEvent>,
    epoch: u64,
    input_records: u64,
    input_bytes: u64,
    /// High-water mark of [`LiveSession::open_groups`], sampled by the node
    /// tasks at every epoch barrier before they close windows.
    peak_open_groups: usize,
    finished: bool,
}

/// Rows per channel message, to exercise backpressure: the unit a source
/// runs through its SP-side prefix, splits over the ring and encodes.
const CHUNK: usize = 256;

impl LiveSession {
    /// Builds a session from a validated spec.
    pub fn new(spec: &DeploymentSpec) -> Result<LiveSession, DeployError> {
        let planned = spec.planned.clone();
        let costs = spec.workload.costs();
        let m = planned.source_ops;
        let n = spec.sources;
        let budget_us = spec.cpu_budget * calibration::EPOCH_SECS * 1e6;

        // Split the replica chain at its keyed boundary: stateless prefix
        // with the source, keyed pipelines on the node pool. Keyless plans
        // keep the whole chain with the source and a single pass-through
        // shard on a single node.
        let (boundary, shard_keys) = match planned.plan.shard_boundary() {
            Some((g, keys)) => (g, keys),
            None => (planned.plan.len(), Vec::new()),
        };
        let (n_shards, n_nodes) = if shard_keys.is_empty() {
            (1, 1)
        } else {
            let shards = spec.sp_shards.max(1) as usize;
            (shards, (spec.sp_nodes.max(1) as usize).min(shards))
        };

        let mut workers = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut ops = build_pipeline(&planned.plan, &costs, AggRole::Partial)?;
            ops.truncate(m);
            let mut sp_prefix = build_pipeline(&planned.plan, &costs, AggRole::Final)?;
            sp_prefix.truncate(boundary);
            let initial = spec
                .fixed_load_factors
                .clone()
                .unwrap_or_else(|| spec.strategy.initial_load_factors(&planned));
            let proxies = initial
                .iter()
                .map(|&p| ControlProxy::new(p, calibration::DRAINED_THRES, calibration::IDLE_THRES))
                .collect();
            let runtime = JarvisRuntime::with_policy(
                spec.strategy.runtime_config(),
                spec.strategy.build_policy(m),
            );
            workers.push(Worker {
                source: i as usize,
                ops,
                proxies,
                generator: spec.workload.generator(i, n),
                runtime,
                sp_prefix,
                dict_sync: vec![DictVersions::new(); n_nodes],
                shard_wire: vec![0; n_shards],
                node_wire: 0,
                budget_us,
                run_profile: false,
                usage_us: 0.0,
                input_records: 0,
                input_bytes: 0,
                drained_records: 0,
                drained_bytes: 0,
                state_deltas: 0,
                profile: None,
            });
        }
        let mut edge_schemas = planned.plan.edge_schemas()?;
        let input_schema = edge_schemas[0].clone();
        let tier = match spec.transport {
            TransportKind::InProcess => {
                let hosts = (0..n_nodes)
                    .map(|id| {
                        let owned = shards_of_node(id, n_shards, n_nodes);
                        ShardHost::new(&planned.plan, &costs, n as usize, owned)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                SpTier::InProcess(hosts)
            }
            TransportKind::Tcp => {
                let final_schema = edge_schemas
                    .pop()
                    .expect("edge schemas cover the output edge");
                SpTier::Remote(Arc::new(RemoteCluster::listen(
                    spec,
                    n_shards,
                    n_nodes,
                    final_schema,
                )?))
            }
        };
        Ok(LiveSession {
            topo: Arc::new(Topology {
                planned,
                costs,
                input_schema,
                ring: Ring::new(n_shards, shard_keys),
                n_nodes,
                boundary,
            }),
            workers,
            tier,
            rt: rt::session_runtime(spec.rt_workers),
            events: spec.events.clone(),
            epoch: 0,
            input_records: 0,
            input_bytes: 0,
            peak_open_groups: 0,
            finished: false,
        })
    }

    /// Current load factors of source `i`.
    pub fn load_factors(&self, i: usize) -> Vec<f64> {
        self.workers[i]
            .proxies
            .iter()
            .map(ControlProxy::load_factor)
            .collect()
    }

    /// The runtime of source `i` (trace/episode access).
    pub fn runtime(&self, i: usize) -> &JarvisRuntime {
        &self.workers[i].runtime
    }

    /// The planned query.
    pub fn planned(&self) -> &PlannedQuery {
        &self.topo.planned
    }

    /// Virtual shards on the SP tier's fixed hash ring.
    pub fn n_shards(&self) -> usize {
        self.topo.ring.n_shards()
    }

    /// SP nodes in the pool.
    pub fn n_nodes(&self) -> usize {
        self.topo.n_nodes
    }

    /// Total rows generated so far.
    pub fn input_records(&self) -> u64 {
        self.input_records
    }

    /// Total input bytes generated so far.
    pub fn input_bytes(&self) -> u64 {
        self.input_bytes
    }

    /// Epochs executed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Groups currently held in open windows across every shard pipeline —
    /// the SP tier's live operator state. Windows close at every epoch
    /// barrier, so between epochs this is bounded by the groups of the
    /// windows still open, however long the session has run. `None` on the
    /// TCP tier, whose state lives in the remote executors.
    pub fn open_groups(&self) -> Option<usize> {
        match &self.tier {
            SpTier::InProcess(hosts) => Some(hosts.iter().map(ShardHost::open_groups).sum()),
            SpTier::Remote(_) => None,
        }
    }

    /// Executor worker threads backing the session's task runtime (the
    /// effective `rt_workers` value, after host sizing or the
    /// `JARVIS_RT_SEED` deterministic override).
    pub fn rt_workers(&self) -> u32 {
        self.rt.workers() as u32
    }

    /// Capacity of the session's async channels ([`rt::CHANNEL_CAPACITY`]).
    pub fn channel_capacity(&self) -> u32 {
        rt::CHANNEL_CAPACITY as u32
    }

    /// Runs one epoch as cooperative tasks on the session's runtime — one
    /// per source, each doing the whole of its source's epoch
    /// (`Worker::run_epoch`) and sending straight to the SP node tasks —
    /// then drives each source's runtime state machine with the epoch's
    /// observations.
    ///
    /// Each task takes its epoch state by value (the source's `Worker`,
    /// the node's `ShardHost`) and returns it through its join handle, so
    /// the scheduler never shares mutable state between tasks; every task
    /// is joined and every `Worker` and `ShardHost` put back before a
    /// failure is returned, so the session stays whole.
    ///
    /// For TCP-backed sessions the epoch boundary blocks until every live
    /// remote node acks it, so node losses (and their recovery, per the
    /// configured [`OnNodeLoss`](crate::deploy::OnNodeLoss) policy) surface
    /// here as typed errors. An in-process session fails only if a node
    /// refuses a payload or its task dies.
    pub fn run_epoch(&mut self) -> Result<(), DeployError> {
        assert!(!self.finished, "session already finished");
        self.apply_events();

        let handle = self.rt.handle();
        let wm = epoch_end_watermark(self.epoch);

        // In-process: one bounded async channel per node, emulating its
        // network link, drained by one task per node. Remote: every
        // payload is framed onto the owner's real TCP link.
        let (sink, node_tasks) = match &mut self.tier {
            SpTier::InProcess(hosts) => {
                let mut node_txs = Vec::with_capacity(hosts.len());
                let mut tasks = Vec::with_capacity(hosts.len());
                for mut host in std::mem::take(hosts) {
                    let (ntx, mut nrx) = rt::chan::bounded::<NodeMsg>(rt::CHANNEL_CAPACITY);
                    node_txs.push(ntx);
                    tasks.push(handle.spawn(async move {
                        // Batch drain: one wakeup per burst of frames. After
                        // a failure the task keeps draining (a source must
                        // never block on a dead link) but applies nothing
                        // more.
                        let mut buf = Vec::new();
                        let mut outcome = Ok(());
                        loop {
                            if nrx.recv_many(&mut buf).await == 0 {
                                break;
                            }
                            for msg in buf.drain(..) {
                                if outcome.is_ok() {
                                    outcome = match msg {
                                        NodeMsg::Local(payload) => host.ingest(payload),
                                        NodeMsg::Wire(frame) => host.ingest_wire(frame),
                                    };
                                }
                            }
                        }
                        // Last step of the epoch: every source is done, so
                        // every row and state delta of the epoch is in; close
                        // what the epoch's end closes.
                        let open = host.open_groups();
                        host.advance(wm);
                        (host, open, outcome)
                    }));
                }
                (LinkSink::Channels(node_txs), tasks)
            }
            SpTier::Remote(cluster) => (LinkSink::Remote(Arc::clone(cluster)), Vec::new()),
        };

        // Source tasks: each owns its worker for the epoch and returns it
        // with how its sends went.
        let ep = Arc::new(Epoch {
            topo: Arc::clone(&self.topo),
            sink,
            epoch: self.epoch,
            now_us: (self.epoch as f64 * calibration::EPOCH_SECS * 1e6) as i64,
        });
        let source_tasks: Vec<_> = std::mem::take(&mut self.workers)
            .into_iter()
            .map(|mut worker| {
                let ep = Arc::clone(&ep);
                handle.spawn(async move {
                    let sent = worker.run_epoch(&ep).await;
                    (worker, sent)
                })
            })
            .collect();
        drop(ep);

        // Join nodes, then sources, moving every task's epoch state back into
        // the session whether or not it failed. A node task ends when the
        // last source task has dropped the sink, so the wait for the first
        // node covers the whole epoch and every later join finds its result
        // ready — joining sources first parks and wakes this thread once per
        // source. The first failure in that order is the epoch's error: a
        // node's own before a source's closed channel, which can only follow
        // from it. (On a deterministic runtime, the first join opens the
        // scheduler gate.)
        let mut failure = Ok(());
        if let SpTier::InProcess(hosts) = &mut self.tier {
            let mut open_groups = 0;
            for (id, task) in node_tasks.into_iter().enumerate() {
                let (host, open, outcome) = task.join();
                hosts.push(host);
                open_groups += open;
                failure = failure.and(outcome.map_err(|e| node_failed(id, e)));
            }
            self.peak_open_groups = self.peak_open_groups.max(open_groups);
        }
        for task in source_tasks {
            let (worker, sent) = task.join();
            self.workers.push(worker);
            failure = failure.and(sent.map_err(|NodeGone(node)| {
                node_failed(node, "its channel closed mid-epoch: the node task is gone")
            }));
        }
        failure?;

        // Epoch boundary: block until every live remote executor acks it
        // (failure detection + recovery live behind this call), then run
        // counterfactual budget classification + the runtime state machine
        // per source.
        if let SpTier::Remote(cluster) = &mut self.tier {
            Arc::get_mut(cluster)
                .expect("epoch tasks joined; the source tasks' clone is gone")
                .epoch_end(self.epoch)?;
        }
        for worker in &mut self.workers {
            self.input_records += worker.input_records;
            self.input_bytes += worker.input_bytes;
            worker.end_epoch();
        }
        self.epoch += 1;
        Ok(())
    }

    /// Applies resource events scheduled for the current epoch: budget
    /// changes update every worker's counterfactual budget; table growth
    /// swaps the static join tables on both halves of every worker's
    /// replica and on the shard pipelines alike.
    fn apply_events(&mut self) {
        let epoch = self.epoch;
        for ev in self.events.clone().iter().filter(|e| e.epoch == epoch) {
            if let Some(cpu) = ev.cpu_budget {
                for worker in &mut self.workers {
                    worker.budget_us = cpu * calibration::EPOCH_SECS * 1e6;
                }
            }
            if let Some(size) = ev.table_size {
                let tables = T2tTables::new(size);
                for worker in &mut self.workers {
                    tables.install(&mut worker.ops);
                    tables.install(&mut worker.sp_prefix);
                }
                // TCP deployments reject scheduled events at validation, so
                // table swaps never need to reach a remote executor.
                if let SpTier::InProcess(hosts) = &mut self.tier {
                    for host in hosts {
                        host.for_each_pipeline(|ops| tables.install(ops));
                    }
                }
            }
        }
    }

    /// Runs `n` epochs, stopping at the first transport failure.
    pub fn run_epochs(&mut self, n: u64) -> Result<(), DeployError> {
        for _ in 0..n {
            self.run_epoch()?;
        }
        Ok(())
    }

    /// Finishes the session: ships residual partial state (routed by key
    /// ownership to the owning shard and node, like the live path), closes
    /// every window on every shard pipeline, and returns the merged results.
    ///
    /// Infallible convenience for in-process sessions; TCP-backed sessions
    /// should prefer [`LiveSession::try_finish`], whose transport errors
    /// this unwraps.
    pub fn finish(self) -> LiveOutcome {
        self.try_finish().expect("live session finish failed")
    }

    /// [`LiveSession::finish`] with transport failures surfaced as typed
    /// errors: a remote node dying mid-run, missing epoch acks, undecodable
    /// results, or the collection deadline expiring.
    pub fn try_finish(mut self) -> Result<LiveOutcome, DeployError> {
        self.finished = true;
        let mut drained_records = 0u64;
        let mut drained_bytes = 0u64;
        let mut state_deltas = 0u64;
        let topo = Arc::clone(&self.topo);
        let (n_shards, n_nodes, boundary) = (topo.ring.n_shards(), topo.n_nodes, topo.boundary);
        // Wire counters live with the sources; this is where they are read.
        let mut shard_wire_bytes = vec![0u64; n_shards];
        let mut node_wire_bytes = vec![0u64; n_nodes];
        // Residual state still held by source-side operators goes where the
        // live path would have sent it: split by key ownership, merged by
        // the owning in-process host or framed onto the owner's link.
        for worker in &mut self.workers {
            drained_records += worker.drained_records;
            drained_bytes += worker.drained_bytes;
            state_deltas += worker.state_deltas;
            node_wire_bytes[worker.source % n_nodes] += worker.node_wire;
            for (total, bytes) in shard_wire_bytes.iter_mut().zip(&worker.shard_wire) {
                *total += bytes;
            }
            for (stage, op) in worker.ops.iter_mut().enumerate() {
                let Some(delta) = op.take_state_delta() else {
                    continue;
                };
                state_deltas += 1;
                if stage < boundary {
                    worker.sp_prefix[stage].merge_state(delta);
                    continue;
                }
                for (s, part) in topo.ring.split_state(delta) {
                    let payload = NetPayload::ShardState {
                        shard: s as u32,
                        epoch: self.epoch,
                        source: worker.source as u32,
                        rel: (stage - boundary) as u32,
                        delta: part,
                    };
                    match &mut self.tier {
                        SpTier::InProcess(hosts) => {
                            let owner = node_of_shard(s, n_shards, n_nodes);
                            hosts[owner]
                                .ingest(payload)
                                .map_err(|e| node_failed(owner, e))?;
                        }
                        // Routed by the cluster's (possibly recovered) shard
                        // map; degraded shards drop their residuals by policy.
                        SpTier::Remote(cluster) => {
                            if let Some(bytes) = cluster.route_payload(s, self.epoch, &payload) {
                                shard_wire_bytes[s] += bytes;
                            }
                        }
                    }
                }
            }
        }
        // Close the windows still open (every earlier one closed at its
        // epoch barrier); emissions cascade through the rest of that shard's
        // chain. In-process hosts drain locally; remote executors drain on
        // their side and stream the batches back. Either way each node
        // yields its per-shard counters and its columnar results, which
        // become rows here, once.
        let peak_open_groups = self.open_groups().map(|_| self.peak_open_groups);
        let mut incidents = Vec::new();
        let mut replay_bytes = 0u64;
        let mut heartbeats_sent = 0u64;
        let mut shard_completeness = vec![1.0f64; n_shards];
        let nodes = match self.tier {
            SpTier::InProcess(hosts) => hosts
                .into_iter()
                .map(|mut host| {
                    let batches = host.drain();
                    (host.counters(), batches)
                })
                .collect(),
            SpTier::Remote(cluster) => {
                let cluster = Arc::into_inner(cluster)
                    .expect("epoch tasks joined; the session holds the only cluster handle");
                let fin = cluster.finish()?;
                // Actual socket traffic (TX + RX) per node link, replacing
                // the modelled per-ingress accounting.
                node_wire_bytes = fin.node_wire_bytes;
                incidents = fin.incidents;
                replay_bytes = fin.replay_bytes;
                heartbeats_sent = fin.heartbeats_sent;
                shard_completeness = fin.shard_completeness;
                fin.nodes
            }
        };
        let mut results = Vec::new();
        let mut shard_drained_records = vec![0u64; n_shards];
        let mut shard_usage_us = vec![0f64; n_shards];
        let mut node_drained_records = Vec::with_capacity(n_nodes);
        let mut node_usage_us = Vec::with_capacity(n_nodes);
        for (counters, batches) in nodes {
            let mut drained = 0u64;
            let mut usage = 0f64;
            for c in &counters {
                shard_drained_records[c.shard as usize] = c.drained_records;
                shard_usage_us[c.shard as usize] = c.usage_us;
                drained += c.drained_records;
                usage += c.usage_us;
            }
            node_drained_records.push(drained);
            node_usage_us.push(usage);
            for batch in batches {
                results.extend(batch.to_records());
            }
        }
        Ok(LiveOutcome {
            results,
            drained_records,
            drained_bytes: drained_bytes as f64,
            state_deltas,
            input_records: self.input_records,
            input_bytes: self.input_bytes as f64,
            epochs: self.epoch,
            shard_drained_records,
            shard_usage_us,
            shard_wire_bytes,
            node_drained_records,
            node_usage_us,
            node_wire_bytes,
            incidents,
            replay_bytes,
            heartbeats_sent,
            shard_completeness,
            peak_open_groups,
        })
    }
}

/// A refused payload, or a closed channel, as the failure of the in-process
/// node behind it.
fn node_failed(node: usize, reason: impl ToString) -> DeployError {
    DeployError::NodeFailed {
        node: node as u32,
        reason: reason.to_string(),
    }
}

impl Worker {
    fn begin_epoch(&mut self) {
        self.usage_us = 0.0;
        for p in &mut self.proxies {
            p.begin_epoch();
        }
    }

    /// The whole of this source's epoch: generate and relabel its batch,
    /// profile it on a scratch pipeline when the runtime asked, route it
    /// through proxies and source-side operators, and ship what drains —
    /// chunk by chunk, as it drains — and then the operators' state deltas
    /// to the owning SP nodes. A failed send ends the dispatch there.
    async fn run_epoch(&mut self, ep: &Epoch) -> Result<(), NodeGone> {
        let topo = &*ep.topo;
        let m = topo.planned.source_ops;
        self.begin_epoch();
        let mut input = self.generator.generate_epoch_batch(ep.now_us, 1.0);
        input.relabel(&topo.input_schema);
        self.input_records = input.len() as u64;
        self.input_bytes = input.wire_size() as u64;
        if self.run_profile {
            self.profile = Some(profile_on_scratch(
                &topo.planned.plan,
                &topo.costs,
                m,
                &input,
                self.budget_us,
            ));
            self.run_profile = false;
        }

        let mut batches = vec![input];
        for i in 0..m {
            let mut next: Vec<Batch> = Vec::new();
            for batch in batches.drain(..) {
                let (fwd, drained) = self.proxies[i].split_batch(batch);
                if let Some(drained) = drained {
                    self.drain(i, drained, ep).await?;
                }
                if let Some(fwd) = fwd {
                    // Counterfactual budget charge from the calibrated model,
                    // resampled per quantum so state-dependent costs track
                    // state growth within the epoch (as the emulated engine
                    // does).
                    for sub in fwd.chunks(calibration::EXEC_QUANTUM) {
                        self.usage_us += self.ops[i].cost_us() * sub.len() as f64;
                        self.ops[i].process_batch(sub, &mut next);
                    }
                }
            }
            batches = next;
        }
        // Rows that passed the whole local prefix continue at SP stage m.
        for batch in batches {
            self.drain(m, batch, ep).await?;
        }

        // Ship partial state every epoch (exactness does not depend on the
        // cadence; shipping eagerly keeps replica state fresh).
        for stage in 0..self.ops.len() {
            let Some(delta) = self.ops[stage].take_state_delta() else {
                continue;
            };
            self.state_deltas += 1;
            if stage < topo.boundary {
                // A stateless prefix op cannot own mergeable state; the
                // default merge hook ignores it.
                self.sp_prefix[stage].merge_state(delta);
                continue;
            }
            for (s, part) in topo.ring.split_state(delta) {
                let payload = NetPayload::ShardState {
                    shard: s as u32,
                    epoch: ep.epoch,
                    source: self.source as u32,
                    rel: (stage - topo.boundary) as u32,
                    delta: part,
                };
                self.ship(s, payload, ep).await?;
            }
        }
        Ok(())
    }

    /// Ships a batch drained in front of source-side operator `stage`,
    /// `CHUNK` rows at a time: each chunk runs what is left of the stateless
    /// prefix on its way to the keyed boundary, then splits over the ring. A
    /// batch drained at or past the boundary has no prefix left (`skip`
    /// yields nothing) and enters the shard suffix `rel` stages in.
    async fn drain(&mut self, stage: usize, batch: Batch, ep: &Epoch) -> Result<(), NodeGone> {
        if batch.is_empty() {
            return Ok(());
        }
        self.drained_records += batch.len() as u64;
        self.drained_bytes += batch.wire_size() as u64;
        let rel = stage.saturating_sub(ep.topo.boundary);
        for chunk in batch.chunks(CHUNK) {
            let mut batches = vec![chunk];
            for op in self.sp_prefix.iter_mut().skip(stage) {
                let mut next = Vec::new();
                for b in batches.drain(..) {
                    op.process_batch(b, &mut next);
                }
                batches = next;
            }
            for b in batches {
                for (s, part) in ep.topo.ring.split_batch(rel, b) {
                    let payload = NetPayload::ShardBatch {
                        shard: s as u32,
                        epoch: ep.epoch,
                        source: self.source as u32,
                        rel: rel as u32,
                        batch: part,
                    };
                    self.ship(s, payload, ep).await?;
                }
            }
        }
        Ok(())
    }

    /// Sends one payload over the owning node's link. In-process:
    /// ingress-local traffic as an in-process value, cross-node traffic
    /// encoded delta-aware (persistent dictionary pages ship only what the
    /// target's mirror is missing) and charged its actual encoded size.
    /// Remote: everything is framed onto the owner's socket and charged its
    /// actual framed size; the enqueue onto the link's bounded queue may
    /// block this task's worker briefly, but the link's writer thread
    /// drains independently of the executor, so the pool cannot deadlock.
    async fn ship(
        &mut self,
        shard: usize,
        payload: NetPayload,
        ep: &Epoch,
    ) -> Result<(), NodeGone> {
        let n_nodes = ep.topo.n_nodes;
        let owner = node_of_shard(shard, ep.topo.ring.n_shards(), n_nodes);
        match &ep.sink {
            LinkSink::Channels(node_txs) => {
                let msg = if owner == self.source % n_nodes {
                    NodeMsg::Local(payload)
                } else {
                    let wire = encode_shard_payload_with(&payload, &mut self.dict_sync[owner]);
                    self.shard_wire[shard] += wire.len() as u64;
                    self.node_wire += wire.len() as u64;
                    NodeMsg::Wire(wire)
                };
                node_txs[owner].send(msg).await.map_err(|_| NodeGone(owner))
            }
            LinkSink::Remote(cluster) => {
                if let Some(bytes) = cluster.route_payload(shard, ep.epoch, &payload) {
                    self.shard_wire[shard] += bytes;
                    self.node_wire += bytes;
                }
                Ok(())
            }
        }
    }

    /// Classifies the finished epoch against the counterfactual budget and
    /// drives the runtime state machine.
    fn end_epoch(&mut self) {
        let all_local = self.proxies.iter().all(|p| p.load_factor() >= 1.0 - 1e-12);
        let state = if self.usage_us > self.budget_us {
            QueryState::Congested
        } else if self.usage_us < self.budget_us * (1.0 - calibration::IDLE_THRES) && !all_local {
            QueryState::Idle
        } else {
            QueryState::Stable
        };
        let current: Vec<f64> = self.proxies.iter().map(ControlProxy::load_factor).collect();
        let decision = self
            .runtime
            .on_epoch_end(state, self.profile.take(), &current);
        if let Some(p) = decision.set_load_factors {
            for (proxy, &v) in self.proxies.iter_mut().zip(&p) {
                proxy.set_load_factor(v);
            }
        }
        self.run_profile = decision.run_profile;
    }
}

/// Measures per-operator cost and relay ratios on a scratch pipeline fed
/// with this epoch's batch — the live equivalent of a Profile epoch. The
/// scratch state starts empty, so state-dependent costs are *under*estimated
/// exactly like the paper's one-epoch profiling (§VI-C).
fn profile_on_scratch(
    plan: &streamkit::logical::LogicalPlan,
    costs: &streamkit::physical::CostProfile,
    m: usize,
    input: &Batch,
    budget_us: f64,
) -> ProfileEstimates {
    let mut ops = build_pipeline(plan, costs, AggRole::Partial).expect("validated plan");
    ops.truncate(m);
    let mut cost_us = Vec::with_capacity(m);
    let mut relay_bytes = Vec::with_capacity(m);
    let mut relay_count = Vec::with_capacity(m);
    let mut batches: Vec<Batch> = vec![input.clone()];
    for op in &mut ops {
        let in_count: usize = batches.iter().map(Batch::len).sum();
        let in_bytes: usize = batches.iter().map(Batch::wire_size).sum();
        let mut out: Vec<Batch> = Vec::new();
        let mut used = 0.0;
        for batch in batches.drain(..) {
            for sub in batch.chunks(calibration::PROFILE_SUBBATCH_ROWS) {
                used += op.cost_us() * sub.len() as f64;
                op.process_batch(sub, &mut out);
            }
        }
        let mut out_count: usize = out.iter().map(Batch::len).sum();
        let mut out_bytes: usize = out.iter().map(Batch::wire_size).sum();
        if op.is_stateful() {
            if let Some(delta) = op.take_state_delta() {
                out_count += delta.entry_count();
                out_bytes += delta.wire_bytes();
            }
        }
        cost_us.push(if in_count > 0 {
            used / in_count as f64
        } else {
            op.cost_us()
        });
        relay_count.push(if in_count > 0 {
            out_count as f64 / in_count as f64
        } else {
            1.0
        });
        relay_bytes.push(if in_bytes > 0 {
            out_bytes as f64 / in_bytes as f64
        } else {
            1.0
        });
        batches = out;
    }
    ProfileEstimates {
        cost_us,
        relay_bytes,
        relay_count,
        records_per_epoch: input.len() as f64,
        budget_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Scale;
    use crate::deploy::{BackendKind, Deployment};
    use crate::experiment::ScenarioSpec;
    use crate::live::host::HostError;
    use crate::strategy::StrategyKind;

    fn spec(strategy: StrategyKind, cpu: f64) -> DeploymentSpec {
        Deployment::builder()
            .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
            .strategy(strategy)
            .cpu_budget(cpu)
            .sources(2)
            .spec()
            .unwrap()
    }

    #[test]
    fn refused_payloads_fail_the_epoch_with_the_nodes_identity() {
        // What a host refuses (see `live::host`) surfaces as a typed node
        // failure naming the node; it does not panic a runtime worker.
        let err = node_failed(3, HostError::Undecodable("bad tag".to_string()));
        assert!(
            matches!(&err, DeployError::NodeFailed { node: 3, reason } if reason.contains("undecodable")),
            "got {err:?}"
        );
    }

    /// Runs source 0's first epoch against a 2-node pool's channels, node
    /// 1's receiver kept or dropped; returns the worker, how its sends
    /// went, and the lengths of the wire frames that reached node 1.
    fn first_epoch_of_source_zero(
        node_one_alive: bool,
    ) -> (Worker, Result<(), NodeGone>, Vec<u64>) {
        let spec = Deployment::builder()
            .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
            .strategy(StrategyKind::AllSp)
            .cpu_budget(0.6)
            .sources(2)
            .sp_shards(4)
            .sp_nodes(2)
            .backend(BackendKind::Live)
            .spec()
            .unwrap();
        let mut session = LiveSession::new(&spec).unwrap();
        let mut worker = session.workers.swap_remove(0);
        // Wide enough that no send ever waits for a receiver.
        let (tx0, _rx0) = rt::chan::bounded::<NodeMsg>(1 << 16);
        let (tx1, rx1) = rt::chan::bounded::<NodeMsg>(1 << 16);
        let mut rx1 = node_one_alive.then_some(rx1);
        let ep = Epoch {
            topo: Arc::clone(&session.topo),
            sink: LinkSink::Channels(vec![tx0, tx1]),
            epoch: 0,
            now_us: 0,
        };
        let rt = rt::deterministic_runtime(7);
        let task = rt.spawn(async move {
            let sent = worker.run_epoch(&ep).await;
            drop(ep);
            let mut frames = Vec::new();
            if let Some(rx) = &mut rx1 {
                while rx.recv_many(&mut frames).await > 0 {}
            }
            (worker, sent, frames)
        });
        let (worker, sent, frames) = task.join();
        let lens = frames
            .into_iter()
            .map(|msg| match msg {
                NodeMsg::Wire(frame) => frame.len() as u64,
                NodeMsg::Local(_) => panic!("source 0 ingresses at node 0"),
            })
            .collect();
        (worker, sent, lens)
    }

    #[test]
    fn a_closed_node_channel_ends_the_dispatch_with_the_owners_id() {
        // Source 0 ingresses at node 0, so everything it owes node 1's
        // shards is encoded. With node 1 draining, every frame arrives and
        // is charged; with node 1's receiver gone, the first send toward
        // it fails with that node's id instead of panicking the runtime
        // worker, and nothing after that frame is encoded.
        let (healthy, sent, frames) = first_epoch_of_source_zero(true);
        assert_eq!(sent, Ok(()));
        assert!(frames.len() > 1, "several chunks cross to node 1");
        assert_eq!(healthy.node_wire, frames.iter().sum::<u64>());

        let (failed, sent, _) = first_epoch_of_source_zero(false);
        assert_eq!(sent, Err(NodeGone(1)));
        assert_eq!(
            failed.node_wire, frames[0],
            "the dispatch stops at the frame whose send failed"
        );
    }

    #[test]
    fn resource_events_change_the_live_budget() {
        // A Fig.8-style budget drop must reach the workers' counterfactual
        // budgets and re-trigger adaptation on the live backend.
        let spec = Deployment::builder()
            .workload(ScenarioSpec::pingmesh_s2s(Scale::X10))
            .strategy(StrategyKind::Jarvis)
            .cpu_budget(1.0)
            .events(&[crate::experiment::ResourceEvent {
                epoch: 12,
                cpu_budget: Some(0.05),
                table_size: None,
            }])
            .spec()
            .unwrap();
        let mut s = LiveSession::new(&spec).unwrap();
        s.run_epochs(12).unwrap();
        let before = s.load_factors(0);
        s.run_epochs(14).unwrap();
        let after = s.load_factors(0);
        assert!(
            after.iter().sum::<f64>() < before.iter().sum::<f64>(),
            "a 20x budget cut must pull load factors down: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn a_table_event_swaps_every_join_on_both_halves_and_the_shard_pipelines() {
        // One join on each side of the keyed boundary: each source runs W, J
        // and the partial G+R, its SP prefix W and J, and every shard
        // pipeline the final G+R and the trailing join.
        use streamkit::agg::AggKind;
        use streamkit::ops::{JoinMiss, OpKind};
        use streamkit::query::Query;
        use telemetry::pingmesh::{pingmesh_schema, PingmeshConfig, PingmeshGenerator};

        let table_len = |size| telemetry::queries::t2t_tables(size, 40, &[1]).0.len();
        let (src, dst) = telemetry::queries::t2t_tables(500, 40, &[1]);
        let plan = Query::stream("swap", pingmesh_schema())
            .window_secs(10.0)
            .join(src, "srcIp", JoinMiss::Drop)
            .group_by(&["srcIp", "dstIp"])
            .aggregate(&[(AggKind::Avg, "rtt", "avg_rtt")])
            .join(dst, "dstIp", JoinMiss::Drop)
            .build()
            .unwrap();
        let generators = (1..=2)
            .map(|src_ip| {
                Box::new(PingmeshGenerator::new(PingmeshConfig {
                    src_ip,
                    ..Default::default()
                })) as Box<dyn EpochSource>
            })
            .collect();
        let spec = Deployment::builder()
            .workload(crate::deploy::CustomWorkload::new(
                "swap",
                plan,
                streamkit::physical::CostProfile::uniform(4, 1.0),
                generators,
            ))
            .strategy(StrategyKind::AllSp)
            .sources(2)
            .sp_shards(4)
            .sp_nodes(2)
            .backend(BackendKind::Live)
            .events(&[crate::experiment::ResourceEvent {
                epoch: 1,
                cpu_budget: None,
                table_size: Some(5000),
            }])
            .spec()
            .unwrap();
        assert_eq!(spec.planned.source_ops, 3);
        let join_sizes = |s: &mut LiveSession| {
            let mut sizes = Vec::new();
            let mut record = |ops: &mut [Box<dyn Operator>]| {
                for op in ops.iter().filter(|op| op.kind() == OpKind::Join) {
                    sizes.push(op.state_size());
                }
            };
            for worker in &mut s.workers {
                record(&mut worker.ops);
                record(&mut worker.sp_prefix);
            }
            let SpTier::InProcess(hosts) = &mut s.tier else {
                unreachable!("in-process session")
            };
            for host in hosts {
                host.for_each_pipeline(&mut record);
            }
            sizes
        };
        // Two sources × (source op + prefix op) plus 4 shards × 2 sources.
        let mut s = LiveSession::new(&spec).unwrap();
        s.run_epoch().unwrap();
        assert_eq!(join_sizes(&mut s), vec![table_len(500); 12]);
        s.run_epoch().unwrap();
        assert_eq!(join_sizes(&mut s), vec![table_len(5000); 12]);
    }

    #[test]
    fn adaptive_session_pulls_work_local() {
        let mut s = LiveSession::new(&spec(StrategyKind::Jarvis, 1.0)).unwrap();
        s.run_epochs(12).unwrap();
        let p = s.load_factors(0);
        assert!(
            p.iter().any(|&v| v > 0.0),
            "the runtime must install a plan over live epochs: {p:?}"
        );
        assert!(!s.runtime(0).trace().is_empty());
    }

    #[test]
    fn fixed_strategy_sessions_never_move_factors() {
        let mut s = LiveSession::new(&spec(StrategyKind::AllSrc, 0.2)).unwrap();
        s.run_epochs(6).unwrap();
        assert_eq!(s.load_factors(0), vec![1.0, 1.0, 1.0]);
        let out = s.finish();
        assert_eq!(out.drained_records, 0, "All-Src drains nothing");
        assert!(out.state_deltas > 0, "state still ships");
        assert!(!out.results.is_empty());
    }

    #[test]
    fn adaptive_and_all_sp_results_match() {
        // Exactness across load-factor plans, now under runtime adaptation.
        let mut adaptive = LiveSession::new(&spec(StrategyKind::Jarvis, 0.6)).unwrap();
        adaptive.run_epochs(10).unwrap();
        let a = adaptive.finish();
        let mut all_sp = LiveSession::new(&spec(StrategyKind::AllSp, 0.6)).unwrap();
        all_sp.run_epochs(10).unwrap();
        let b = all_sp.finish();
        let digest = |rows: &[Record]| crate::deploy::ExactnessDigest::of_rows(rows);
        assert_eq!(digest(&a.results), digest(&b.results));
        assert!(a.drained_records < b.drained_records);
    }

    #[test]
    fn shard_pool_splits_the_drain_share() {
        // With 4 shards and everything drained to the SP, the key-hash
        // partitioner must spread rows across more than one shard worker
        // and account the split.
        let spec = Deployment::builder()
            .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
            .strategy(StrategyKind::AllSp)
            .cpu_budget(0.6)
            .sources(2)
            .sp_shards(4)
            .backend(BackendKind::Live)
            .spec()
            .unwrap();
        let mut s = LiveSession::new(&spec).unwrap();
        assert_eq!(s.n_shards(), 4);
        assert_eq!(s.n_nodes(), 1);
        s.run_epochs(4).unwrap();
        let out = s.finish();
        assert_eq!(out.shard_drained_records.len(), 4);
        let busy = out.shard_drained_records.iter().filter(|&&r| r > 0).count();
        assert!(
            busy > 1,
            "keys must spread: {:?}",
            out.shard_drained_records
        );
        assert!(
            out.shard_usage_us.iter().sum::<f64>() > 0.0,
            "per-shard budgets must be charged"
        );
        assert_eq!(
            out.shard_wire_bytes.iter().sum::<u64>(),
            0,
            "a single-node pool never crosses a link"
        );
        assert!(!out.results.is_empty());
    }

    #[test]
    fn node_pool_splits_the_ring_and_charges_the_links() {
        // 4 shards over 2 nodes with 2 sources: source 0 ingresses at node
        // 0, source 1 at node 1, and every sub-batch owned by the other
        // node's slice must cross a link as encoded bytes.
        let spec = Deployment::builder()
            .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
            .strategy(StrategyKind::AllSp)
            .cpu_budget(0.6)
            .sources(2)
            .sp_shards(4)
            .sp_nodes(2)
            .backend(BackendKind::Live)
            .spec()
            .unwrap();
        let mut s = LiveSession::new(&spec).unwrap();
        assert_eq!(s.n_shards(), 4);
        assert_eq!(s.n_nodes(), 2);
        s.run_epochs(4).unwrap();
        let out = s.finish();
        assert_eq!(out.node_drained_records.len(), 2);
        assert_eq!(
            out.node_drained_records.iter().sum::<u64>(),
            out.shard_drained_records.iter().sum::<u64>(),
            "node drains roll up the shard drains"
        );
        assert!(
            out.shard_wire_bytes.iter().sum::<u64>() > 0,
            "remote-shard traffic must charge the links"
        );
        assert!(
            out.node_wire_bytes.iter().all(|&b| b > 0),
            "both ingress nodes ship toward the other's slice: {:?}",
            out.node_wire_bytes
        );
        assert!(!out.results.is_empty());
    }
}
