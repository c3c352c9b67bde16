//! The remote stream-processor executor behind the `jarvis-node` binary.
//!
//! [`run_node`] dials a coordinator, authenticates with the shared token,
//! receives its [`NodeSpec`] slice, replans the workload locally (planning
//! is deterministic, so coordinator and node agree on the chain, the shard
//! boundary, and every edge schema), instantiates the
//! `ShardSet`s for its owned ring slice,
//! and serves shard traffic until the coordinator finishes the run. The
//! serve loop is single-threaded: the coordinator's per-link FIFO ordering
//! guarantees `EpochEnd` and `Finish` arrive after every data frame they
//! follow.
//!
//! **Window lifecycle.** That ordering makes every `EpochEnd` a barrier:
//! all of the epoch's rows and state deltas are in, so the node advances
//! event time to the epoch's end with zero lateness — the same
//! `ShardSet::advance` the in-process node tasks call — *before* it acks
//! (and before it snapshots, on a checkpoint epoch). Closed windows leave
//! operator state and accumulate as columnar result batches; operator
//! state never outgrows the windows still open. `Finish` drains only the
//! last window, streams the result batches and final per-shard counters
//! back, and exits.
//!
//! Fault tolerance adds three duties on top of the fault-free loop:
//!
//! - **Heartbeats** — every `Ping` is answered with a `Pong` immediately,
//!   so a coordinator waiting on a slow epoch can tell "busy" from "dead".
//! - **Checkpoints** — when [`NodeSpec::checkpoint_interval`] is non-zero,
//!   the node ships two kinds of `Ckpt` frame at the matching epoch
//!   boundaries, after closing windows: the open-window state of every
//!   stateful suffix operator, and the cumulative result rows collected
//!   past the chain (every window closed so far), one past-the-end
//!   `ShardBatch` envelope per shard. Both are committed by the
//!   [`CheckpointAck`] riding on the following `Progress` (per-link
//!   FIFO order makes the ack see exactly the frames before it).
//! - **Adoption** — an `Adopt` frame re-keys the engine: each adopted
//!   shard starts from a fresh pipeline seeded with the checkpoint's
//!   counter bases; checkpoint state and replayed traffic then arrive as
//!   ordinary `Shard` frames — state merges into fresh per-window tables,
//!   collected rows route straight back into `collected` — and the
//!   re-sent `EpochEnd` re-closes, all at once, the windows the replayed
//!   epochs completed. The same message serves both recovery paths
//!   (a surviving node taking over a dead peer's shards, and a
//!   reconnecting node re-owning its previous slice).
//!
//! With [`NodeConfig::reconnect`] set, a transport failure mid-run tears
//! the session down and re-dials under the same node id with capped
//! exponential backoff — the coordinator re-admits the node under its
//! token, re-ships spec, checkpoint, and replayed tail, and the rebuilt
//! engine converges on bit-identical state.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use streamkit::batch::{Batch, DictRegistry};
use streamkit::logical::LogicalPlan;
use streamkit::ops::{AggRole, StatePartial};
use streamkit::physical::{build_pipeline, CostProfile};
use streamkit::shard::shards_of_node;

use crate::deploy::remote::{
    from_body, to_body, Admit, AdoptMsg, CheckpointAck, NodeSpec, NodeStatsMsg, Progress, Register,
    Reject, ShardCounters,
};
use crate::engine::netwire::{decode_shard_payload_with, encode_shard_payload};
use crate::engine::transport::{encode_frame, FrameKind, FrameReader, Link, TransportError};
use crate::engine::NetPayload;
use crate::fault::splitmix64;
use crate::live::session::{epoch_end_watermark, ShardSet};
use crate::planner::plan_query;

/// Rows per `Results` frame when streaming collected rows back.
const RESULTS_CHUNK: usize = 2048;

/// Reconnect poll interval while the coordinator is not yet listening.
const CONNECT_POLL: Duration = Duration::from_millis(50);

/// First reconnect backoff step (doubles per attempt).
const RECONNECT_BASE: Duration = Duration::from_millis(100);

/// Reconnect backoff ceiling.
const RECONNECT_CAP: Duration = Duration::from_secs(2);

/// Reconnect jitter span, milliseconds (see [`reconnect_backoff`]).
const RECONNECT_JITTER_MS: u64 = 100;

/// How a node run is configured (mirrors the `jarvis-node` CLI flags).
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Coordinator endpoint, `host:port`.
    pub coordinator: String,
    /// Shared-secret token presented at registration.
    pub token: String,
    /// Requested node id; `None` lets the coordinator assign one.
    pub node_id: Option<u32>,
    /// How long to keep retrying the initial connect (the coordinator may
    /// not be listening yet).
    pub connect_timeout: Duration,
    /// Re-dial and re-register under the same node id after a mid-run
    /// transport failure, instead of exiting with the error.
    pub reconnect: bool,
    /// Reconnect attempts before giving up (only with `reconnect`).
    pub max_reconnects: u32,
}

impl NodeConfig {
    /// A config with the default connect timeout and reconnects disabled.
    pub fn new(coordinator: impl Into<String>, token: impl Into<String>) -> NodeConfig {
        NodeConfig {
            coordinator: coordinator.into(),
            token: token.into(),
            node_id: None,
            connect_timeout: Duration::from_secs(10),
            reconnect: false,
            max_reconnects: 5,
        }
    }
}

/// Why a node run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// The coordinator endpoint never accepted a connection.
    Connect {
        /// The endpoint dialled.
        endpoint: String,
        /// The last connection error observed.
        last_error: String,
    },
    /// The coordinator refused the registration.
    Rejected {
        /// The coordinator's refusal reason.
        reason: String,
    },
    /// The link failed at the transport layer.
    Transport(TransportError),
    /// The peer sent something outside the protocol's state machine.
    Protocol {
        /// What went wrong.
        reason: String,
    },
    /// The received spec could not be turned into a runnable engine.
    Build {
        /// The planner/pipeline error.
        reason: String,
    },
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Connect {
                endpoint,
                last_error,
            } => write!(f, "cannot connect to coordinator {endpoint}: {last_error}"),
            NodeError::Rejected { reason } => write!(f, "registration rejected: {reason}"),
            NodeError::Transport(e) => write!(f, "transport failure: {e}"),
            NodeError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            NodeError::Build { reason } => write!(f, "cannot build engine from spec: {reason}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<TransportError> for NodeError {
    fn from(e: TransportError) -> NodeError {
        NodeError::Transport(e)
    }
}

/// What a completed node run did, for operator logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSummary {
    /// The node id the coordinator assigned.
    pub node_id: u32,
    /// Epoch boundaries observed (a replayed boundary counts again).
    pub epochs: u64,
    /// Shard data frames processed (replayed frames count again).
    pub shard_frames: u64,
    /// Result rows streamed back.
    pub result_rows: u64,
    /// Mid-run reconnects that re-established the session.
    pub reconnects: u32,
}

/// Counters that survive a session teardown, so a reconnect resumes the
/// summary (and re-registers under the admitted id) instead of starting
/// from scratch.
struct SessionState {
    /// The node id to re-register under (set at the first `Admit`).
    node_id: Option<u32>,
    /// Distinct epochs observed across all sessions. Recovery may re-send
    /// an `EpochEnd` the node already processed (a survivor adopting
    /// shards mid-epoch sees the current boundary twice), so this tracks
    /// the highest boundary rather than counting frames.
    epochs: u64,
    /// Shard frames processed across all sessions.
    shard_frames: u64,
}

/// Dials the coordinator, executes the assigned shard slice, and streams
/// results back. Returns once the coordinator's `Finish` is fully
/// answered — or, with [`NodeConfig::reconnect`], after exhausting the
/// reconnect budget on a persistent failure.
pub fn run_node(config: &NodeConfig) -> Result<NodeSummary, NodeError> {
    let mut state = SessionState {
        node_id: config.node_id,
        epochs: 0,
        shard_frames: 0,
    };
    let mut attempt = 0u32;
    loop {
        match run_session(config, &mut state) {
            Ok(mut summary) => {
                summary.reconnects = attempt;
                return Ok(summary);
            }
            Err(e) => {
                // Only link-level failures are worth re-dialling for; a
                // rejection or build failure would just repeat.
                let recoverable = matches!(e, NodeError::Transport(_) | NodeError::Protocol { .. });
                if !(config.reconnect && recoverable && attempt < config.max_reconnects) {
                    return Err(e);
                }
                attempt += 1;
                thread::sleep(reconnect_backoff(attempt, state.node_id.unwrap_or(0)));
            }
        }
    }
}

/// Capped exponential reconnect backoff with deterministic jitter:
/// `100ms · 2^(attempt-1)` capped at 2 s, plus 0–100 ms of
/// [`splitmix64`]-derived jitter so a cluster of nodes reconnecting after
/// the same network event does not stampede the coordinator in lockstep.
fn reconnect_backoff(attempt: u32, node_id: u32) -> Duration {
    let base = RECONNECT_BASE
        .checked_mul(1u32 << (attempt.saturating_sub(1)).min(16))
        .unwrap_or(RECONNECT_CAP)
        .min(RECONNECT_CAP);
    let roll = splitmix64((u64::from(node_id) << 32) | u64::from(attempt));
    base + Duration::from_millis(roll % RECONNECT_JITTER_MS)
}

/// One full coordinator session: handshake, serve loop, finish. A
/// transport error anywhere surfaces to [`run_node`], which decides
/// whether to re-dial.
fn run_session(config: &NodeConfig, state: &mut SessionState) -> Result<NodeSummary, NodeError> {
    let stream = connect(config)?;
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new(stream.try_clone().map_err(|e| NodeError::Connect {
        endpoint: config.coordinator.clone(),
        last_error: e.to_string(),
    })?);

    // Register → Admit/Reject → Spec.
    write_frame(
        &stream,
        FrameKind::Register,
        &to_body(&Register {
            token: config.token.clone(),
            node_id: state.node_id,
        }),
    )?;
    let node_id = match reader.read_frame()? {
        (FrameKind::Admit, body) => {
            let admit: Admit = from_body(&body).map_err(|reason| NodeError::Protocol { reason })?;
            admit.node_id
        }
        (FrameKind::Reject, body) => {
            let reject: Reject =
                from_body(&body).map_err(|reason| NodeError::Protocol { reason })?;
            return Err(NodeError::Rejected {
                reason: reject.reason,
            });
        }
        (other, _) => {
            return Err(NodeError::Protocol {
                reason: format!("expected Admit or Reject, got {other:?}"),
            })
        }
    };
    state.node_id = Some(node_id);
    let spec: NodeSpec = match reader.read_frame()? {
        (FrameKind::Spec, body) => {
            from_body(&body).map_err(|reason| NodeError::Protocol { reason })?
        }
        (other, _) => {
            return Err(NodeError::Protocol {
                reason: format!("expected Spec, got {other:?}"),
            })
        }
    };
    let mut engine = NodeEngine::build(node_id, &spec)?;

    // Ready, then serve until Finish.
    let mut link = Link::spawn(stream);
    link.send(FrameKind::Ready, &[]);
    let result_rows;
    loop {
        let (kind, body) = reader.read_frame()?;
        match kind {
            FrameKind::Shard => {
                engine.ingest(body)?;
                state.shard_frames += 1;
            }
            FrameKind::Ping => {
                link.send(FrameKind::Pong, &[]);
            }
            FrameKind::Adopt => {
                let msg: AdoptMsg =
                    from_body(&body).map_err(|reason| NodeError::Protocol { reason })?;
                engine.adopt(&msg)?;
            }
            FrameKind::EpochEnd => {
                let epoch = parse_epoch(&body)?;
                state.epochs = state.epochs.max(epoch + 1);
                // Close what the epoch's end closes *before* snapshotting:
                // per-link FIFO order put every frame of the epoch ahead of
                // this boundary, and a checkpoint must hold closed windows
                // as result rows, not as operator state.
                engine.advance(epoch);
                let checkpoint = if spec.checkpoint_interval > 0
                    && (epoch + 1) % spec.checkpoint_interval == 0
                {
                    for (shard, source, rel, delta) in engine.snapshot() {
                        link.send(
                            FrameKind::Ckpt,
                            &encode_shard_payload(&NetPayload::ShardState {
                                shard,
                                epoch,
                                source,
                                rel,
                                delta,
                            }),
                        );
                    }
                    for body in engine.collected_snapshot(epoch) {
                        link.send(FrameKind::Ckpt, &body);
                    }
                    Some(CheckpointAck {
                        epoch,
                        shards: engine.counters(),
                    })
                } else {
                    None
                };
                let (drained_records, usage_us) = engine.totals();
                link.send(
                    FrameKind::Progress,
                    &to_body(&Progress {
                        node_id,
                        epoch,
                        drained_records,
                        usage_us,
                        checkpoint,
                    }),
                );
            }
            FrameKind::Finish => {
                let results = engine.drain();
                result_rows = results.iter().map(|b| b.len() as u64).sum();
                for batch in &results {
                    for chunk in batch.chunks(RESULTS_CHUNK) {
                        link.send(FrameKind::Results, &streamkit::encode::encode_batch(&chunk));
                    }
                }
                link.send(FrameKind::NodeStats, &to_body(&engine.stats(node_id)));
                link.send(FrameKind::Done, &[]);
                break;
            }
            other => {
                return Err(NodeError::Protocol {
                    reason: format!("unexpected {other:?} frame while serving"),
                })
            }
        }
    }
    link.close();
    if link.is_broken() {
        return Err(NodeError::Transport(
            link.error().unwrap_or(TransportError::Closed),
        ));
    }
    Ok(NodeSummary {
        node_id,
        epochs: state.epochs,
        shard_frames: state.shard_frames,
        result_rows,
        reconnects: 0,
    })
}

/// Dials the coordinator, retrying until the connect timeout expires.
fn connect(config: &NodeConfig) -> Result<TcpStream, NodeError> {
    let deadline = Instant::now() + config.connect_timeout;
    loop {
        let last_error = match TcpStream::connect(&config.coordinator) {
            Ok(stream) => return Ok(stream),
            Err(e) => e.to_string(),
        };
        if Instant::now() >= deadline {
            return Err(NodeError::Connect {
                endpoint: config.coordinator.clone(),
                last_error,
            });
        }
        thread::sleep(CONNECT_POLL);
    }
}

/// Writes one frame synchronously (handshake only — the serve loop replies
/// through a [`Link`] writer thread).
fn write_frame(mut stream: &TcpStream, kind: FrameKind, body: &[u8]) -> Result<(), NodeError> {
    stream
        .write_all(&encode_frame(kind, body))
        .map_err(|e| NodeError::Transport(TransportError::from(e)))
}

/// Parses an `EpochEnd` body (the epoch index, u64 LE).
fn parse_epoch(body: &[u8]) -> Result<u64, NodeError> {
    let bytes: [u8; 8] = body.try_into().map_err(|_| NodeError::Protocol {
        reason: format!("EpochEnd body must be 8 bytes, got {}", body.len()),
    })?;
    Ok(u64::from_le_bytes(bytes))
}

/// The node's owned slice of the engine: shard sets plus the decode-side
/// schemas, rebuilt locally from the [`NodeSpec`]. Sets are keyed by
/// ring-absolute shard index — ownership starts as the contiguous
/// `shards_of_node` slice but can grow past it through adoption.
struct NodeEngine {
    /// Live shard sets, keyed ring-absolute.
    sets: BTreeMap<usize, ShardSet>,
    /// Input schema of every suffix stage plus the output edge.
    suffix_schemas: Vec<streamkit::schema::SchemaRef>,
    /// The plan's output schema (what `Results` frames encode).
    final_schema: streamkit::schema::SchemaRef,
    /// The optimised plan, kept to instantiate adopted shards' pipelines.
    plan: LogicalPlan,
    /// Calibrated operator costs for fresh pipelines.
    costs: CostProfile,
    /// First SP-side operator index (suffix starts here).
    boundary: usize,
    /// Replica pipelines per shard (one per data source).
    sources: u32,
    /// Mirrors of the coordinator's persistent dictionaries for this link,
    /// fed by the delta pages riding live shard frames. Fresh per session:
    /// a reconnect rebuilds the engine, and the coordinator resets its
    /// sender-side versions to match, so the first post-reconnect frame
    /// re-seeds the mirrors. Checkpoint/replay frames are self-contained
    /// (full pages) and decode without mirror state.
    registry: DictRegistry,
}

impl NodeEngine {
    /// Replans the workload and instantiates the owned shard pipelines —
    /// the same construction [`LiveSession`](crate::live::LiveSession) uses
    /// for its in-process node pool.
    fn build(node_id: u32, spec: &NodeSpec) -> Result<NodeEngine, NodeError> {
        let build_err = |e: &dyn fmt::Display| NodeError::Build {
            reason: e.to_string(),
        };
        if node_id >= spec.n_nodes || spec.n_nodes > spec.n_shards || spec.n_shards == 0 {
            return Err(NodeError::Build {
                reason: format!(
                    "inconsistent geometry: node {node_id} of {} over {} shards",
                    spec.n_nodes, spec.n_shards
                ),
            });
        }
        let scenario = spec.workload.to_scenario();
        let planned =
            plan_query(scenario.logical_plan(), &spec.rules).map_err(|e| build_err(&e))?;
        let costs = scenario.costs();
        let boundary = match planned.plan.shard_boundary() {
            Some((g, _)) => g,
            None => planned.plan.len(),
        };
        let edge_schemas = planned.plan.edge_schemas().map_err(|e| build_err(&e))?;
        let suffix_schemas = edge_schemas[boundary..].to_vec();
        let final_schema = suffix_schemas
            .last()
            .expect("edge schemas cover the output edge")
            .clone();
        let owned = shards_of_node(
            node_id as usize,
            spec.n_shards as usize,
            spec.n_nodes as usize,
        );
        let mut engine = NodeEngine {
            sets: BTreeMap::new(),
            suffix_schemas,
            final_schema,
            plan: planned.plan,
            costs,
            boundary,
            sources: spec.sources,
            registry: DictRegistry::default(),
        };
        for shard in owned {
            let set = engine.fresh_set()?;
            engine.sets.insert(shard, set);
        }
        Ok(engine)
    }

    /// A zero-counter shard set with fresh pipelines (one per source).
    fn fresh_set(&self) -> Result<ShardSet, NodeError> {
        let pipelines = (0..self.sources)
            .map(|_| {
                build_pipeline(&self.plan, &self.costs, AggRole::Final)
                    .map(|mut ops| ops.split_off(self.boundary))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| NodeError::Build {
                reason: e.to_string(),
            })?;
        Ok(ShardSet::new(pipelines))
    }

    /// Takes ownership of shards lost with a failed peer (or re-owns this
    /// node's slice on a reconnect): each adopted shard starts from a
    /// fresh pipeline seeded with the checkpoint's counter bases. The
    /// checkpoint state and the replayed post-checkpoint traffic follow as
    /// ordinary `Shard` frames on the same link.
    fn adopt(&mut self, msg: &AdoptMsg) -> Result<(), NodeError> {
        for a in &msg.shards {
            let mut set = self.fresh_set()?;
            set.drained_records = a.drained_records;
            set.usage_us = a.usage_us;
            self.sets.insert(a.shard as usize, set);
        }
        Ok(())
    }

    /// Full cumulative snapshot of every stateful suffix operator, as
    /// `(shard, source, rel, state)`. Uses the non-destructive
    /// [`checkpoint_state`](streamkit::ops::Operator::checkpoint_state),
    /// which covers every role —
    /// `take_state_delta` would skip final-role aggregations and silently
    /// checkpoint an empty table. Each snapshot is cumulative, so the
    /// coordinator can store checkpoints by replacement.
    fn snapshot(&mut self) -> Vec<(u32, u32, u32, StatePartial)> {
        let mut out = Vec::new();
        for (&shard, set) in &self.sets {
            for (source, pipeline) in set.pipelines.iter().enumerate() {
                for (rel, op) in pipeline.iter().enumerate() {
                    if let Some(delta) = op.checkpoint_state() {
                        out.push((shard as u32, source as u32, rel as u32, delta));
                    }
                }
            }
        }
        out
    }

    /// Closes every window that ends by the end of `epoch` on every owned
    /// shard (see [`ShardSet::advance`]). Idempotent, so a boundary re-sent
    /// by recovery is harmless — and for an adopter it is the moment the
    /// restored and replayed windows close, all at once.
    fn advance(&mut self, epoch: u64) {
        let wm = epoch_end_watermark(epoch);
        for set in self.sets.values_mut() {
            set.advance(wm);
        }
    }

    /// The cumulative rows that already traversed a full chain — the result
    /// rows of every window closed so far — as one past-the-end
    /// `ShardBatch` envelope per non-empty shard (`rel` is the suffix
    /// length, so restoring it routes the rows straight back into
    /// `collected` without re-counting them as drained input). These rows
    /// live outside operator state, so a checkpoint that omitted them
    /// would silently drop every window closed before the snapshot.
    fn collected_snapshot(&self, epoch: u64) -> Vec<bytes::Bytes> {
        let rel = (self.suffix_schemas.len() - 1) as u32;
        let mut out = Vec::new();
        for (&shard, set) in &self.sets {
            if set.collected.is_empty() {
                continue;
            }
            out.push(encode_shard_payload(&NetPayload::ShardBatch {
                shard: shard as u32,
                epoch,
                source: 0,
                rel,
                batch: Batch::concat(self.final_schema.clone(), &set.collected),
            }));
        }
        out
    }

    /// Applies one shard data frame (an untouched `netwire` envelope).
    fn ingest(&mut self, body: bytes::Bytes) -> Result<(), NodeError> {
        let payload = decode_shard_payload_with(body, &self.suffix_schemas, &mut self.registry)
            .map_err(|e| NodeError::Protocol {
                reason: format!("undecodable shard payload: {e}"),
            })?;
        match payload {
            NetPayload::ShardBatch {
                shard,
                source,
                rel,
                batch,
                ..
            } => {
                let set = self.set(shard)?;
                set.process(source as usize, rel as usize, batch);
            }
            NetPayload::ShardState {
                shard,
                source,
                rel,
                delta,
                ..
            } => {
                let set = self.set(shard)?;
                set.pipelines[source as usize][rel as usize].merge_state(delta);
            }
            _ => {
                return Err(NodeError::Protocol {
                    reason: "shard frames carry shard payloads only".to_string(),
                })
            }
        }
        Ok(())
    }

    /// The set owning ring-absolute `shard`, or a protocol error if the
    /// coordinator routed outside this node's owned set.
    fn set(&mut self, shard: u32) -> Result<&mut ShardSet, NodeError> {
        let shard = shard as usize;
        if !self.sets.contains_key(&shard) {
            return Err(NodeError::Protocol {
                reason: format!(
                    "shard {shard} outside owned set {:?}",
                    self.sets.keys().collect::<Vec<_>>()
                ),
            });
        }
        Ok(self.sets.get_mut(&shard).expect("presence checked above"))
    }

    /// Cumulative `(drained_records, usage_us)` across owned shards.
    fn totals(&self) -> (u64, f64) {
        self.sets.values().fold((0, 0.0), |(d, u), set| {
            (d + set.drained_records, u + set.usage_us)
        })
    }

    /// Closes the windows still open and takes all collected result rows.
    fn drain(&mut self) -> Vec<Batch> {
        let mut results = Vec::new();
        for set in self.sets.values_mut() {
            set.advance(streamkit::time::TS_MAX);
            results.append(&mut set.collected);
        }
        results
    }

    /// Per-shard accounting, ring order (adopted shards included).
    fn counters(&self) -> Vec<ShardCounters> {
        self.sets
            .iter()
            .map(|(&s, set)| ShardCounters {
                shard: s as u32,
                drained_records: set.drained_records,
                usage_us: set.usage_us,
            })
            .collect()
    }

    /// Final per-shard accounting, ring order.
    fn stats(&self, node_id: u32) -> NodeStatsMsg {
        NodeStatsMsg {
            node_id,
            shards: self.counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Scale;
    use crate::deploy::remote::{AdoptShard, RemoteWorkload};
    use crate::planner::RuleConfig;

    fn spec(n_shards: u32, n_nodes: u32) -> NodeSpec {
        NodeSpec {
            node_id: 0,
            n_nodes,
            n_shards,
            sources: 2,
            workload: RemoteWorkload::PingmeshS2S { scale: Scale::X1 },
            rules: RuleConfig::default(),
            checkpoint_interval: 0,
        }
    }

    #[test]
    fn engines_rebuild_the_owned_slice() {
        let engine = NodeEngine::build(1, &spec(4, 2)).unwrap();
        assert_eq!(engine.sets.keys().copied().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(engine.sets[&2].pipelines.len(), 2, "one chain per source");
        assert!(
            !engine.suffix_schemas.is_empty(),
            "decode schemas must cover the suffix"
        );
    }

    #[test]
    fn engines_reject_inconsistent_geometry() {
        assert!(matches!(
            NodeEngine::build(2, &spec(4, 2)),
            Err(NodeError::Build { .. })
        ));
        assert!(matches!(
            NodeEngine::build(0, &spec(2, 4)),
            Err(NodeError::Build { .. })
        ));
    }

    #[test]
    fn shard_routing_outside_the_slice_is_a_protocol_error() {
        let mut engine = NodeEngine::build(0, &spec(4, 2)).unwrap();
        assert!(engine.set(0).is_ok());
        assert!(matches!(engine.set(3), Err(NodeError::Protocol { .. })));
    }

    #[test]
    fn adoption_grows_the_owned_set_with_counter_bases() {
        let mut engine = NodeEngine::build(0, &spec(4, 2)).unwrap();
        assert!(engine.set(3).is_err(), "shard 3 belongs to node 1");
        engine
            .adopt(&AdoptMsg {
                shards: vec![AdoptShard {
                    shard: 3,
                    drained_records: 7,
                    usage_us: 0.25,
                }],
            })
            .unwrap();
        assert!(engine.set(3).is_ok());
        let counters = engine.counters();
        let adopted = counters.iter().find(|c| c.shard == 3).unwrap();
        assert_eq!(adopted.drained_records, 7);
        assert!((adopted.usage_us - 0.25).abs() < f64::EPSILON);
        let (drained, _) = engine.totals();
        assert_eq!(drained, 7, "counter bases carry into the totals");
    }

    #[test]
    fn fresh_engines_have_no_state_to_snapshot() {
        let mut engine = NodeEngine::build(0, &spec(4, 2)).unwrap();
        assert!(engine.snapshot().is_empty());
    }

    /// One row per field type of the suffix's input edge, stamped `ts`.
    fn boundary_batch(engine: &NodeEngine, ts: i64) -> Batch {
        use streamkit::schema::DataType;
        use streamkit::value::Value;
        let schema = engine.suffix_schemas[0].clone();
        let values = schema
            .fields()
            .iter()
            .map(|f| match f.dtype {
                DataType::Bool => Value::Bool(true),
                DataType::I32 | DataType::I64 => Value::I64(1),
                DataType::U32 | DataType::U64 => Value::U64(1),
                DataType::F64 => Value::F64(1.0),
                DataType::Str => Value::str("x"),
            })
            .collect();
        Batch::from_records(schema, &[streamkit::record::Record::new(ts, values)]).unwrap()
    }

    #[test]
    fn checkpoints_hold_closed_windows_as_rows_and_open_ones_as_state() {
        let mut engine = NodeEngine::build(0, &spec(4, 2)).unwrap();
        let batch = boundary_batch(&engine, 1_500_000);
        engine
            .ingest(encode_shard_payload(&NetPayload::ShardBatch {
                shard: 0,
                epoch: 1,
                source: 0,
                rel: 0,
                batch,
            }))
            .unwrap();
        // Epoch 8 ends at 9 s: the 10 s window stays open, as state.
        engine.advance(8);
        assert_eq!(engine.snapshot().len(), 1);
        assert!(engine.collected_snapshot(8).is_empty());
        // Epoch 9 ends at 10 s and closes it: the checkpoint taken at this
        // boundary carries the window as a result row, not as state.
        engine.advance(9);
        assert!(engine.snapshot().is_empty());
        let frames = engine.collected_snapshot(9);
        assert_eq!(frames.len(), 1);
        // A re-sent boundary closes nothing twice.
        engine.advance(9);
        assert_eq!(engine.collected_snapshot(9), frames);

        // Restoring the frame routes the row straight back into `collected`
        // — exactly once, and not counted as drained input.
        let mut adopter = NodeEngine::build(0, &spec(4, 2)).unwrap();
        adopter.ingest(frames[0].clone()).unwrap();
        assert_eq!(adopter.totals().0, 0);
        let restored = adopter.drain();
        assert_eq!(restored.iter().map(Batch::len).sum::<usize>(), 1);
        assert_eq!(restored, engine.drain());
    }

    #[test]
    fn reconnect_backoff_is_capped_deterministic_and_jittered() {
        let first = reconnect_backoff(1, 3);
        assert!(first >= RECONNECT_BASE);
        assert!(first < RECONNECT_BASE + Duration::from_millis(RECONNECT_JITTER_MS));
        assert_eq!(first, reconnect_backoff(1, 3), "jitter is deterministic");
        let late = reconnect_backoff(30, 3);
        assert!(late >= RECONNECT_CAP);
        assert!(late < RECONNECT_CAP + Duration::from_millis(RECONNECT_JITTER_MS));
    }
}
