//! The remote stream-processor executor behind the `jarvis-node` binary.
//!
//! [`run_node`] dials a coordinator, authenticates with the shared token,
//! receives its [`NodeSpec`] slice, replans the workload locally (planning
//! is deterministic, so coordinator and node agree on the chain, the shard
//! boundary, and every edge schema), builds a
//! `ShardHost` for its owned ring slice — the same host type the
//! in-process node tasks of [`LiveSession`](crate::live::LiveSession) drive
//! — and serves shard traffic into it until the coordinator finishes the
//! run. This module is the protocol around the host: frames in, acks,
//! checkpoints and results out; what a payload *does* lives in
//! `live::host`. The serve loop is single-threaded: the coordinator's per-link FIFO ordering
//! guarantees `EpochEnd` and `Finish` arrive after every data frame they
//! follow.
//!
//! **Window lifecycle.** That ordering makes every `EpochEnd` a barrier:
//! all of the epoch's rows and state deltas are in, so the node advances
//! event time to the epoch's end with zero lateness — the same
//! `ShardHost::advance` the in-process node tasks call — and sends the rows
//! of every window that closed as shard-tagged `Results` frames (a
//! `ShardBatch` envelope per chunk, in the output schema) *before* it
//! checkpoints and acks. The node keeps nothing of a closed window:
//! operator state never outgrows the windows still open. `Finish` drains
//! only the last window, sends its rows the same way, then the final
//! per-shard counters, and exits.
//!
//! Fault tolerance adds three duties on top of the fault-free loop:
//!
//! - **Heartbeats** — every `Ping` is answered with a `Pong` immediately,
//!   so a coordinator waiting on a slow epoch can tell "busy" from "dead".
//! - **Checkpoints** — when [`NodeSpec::checkpoint_interval`] is non-zero,
//!   the node ships the open-window state of every stateful suffix operator
//!   as `Ckpt` frames at the matching epoch boundaries, after closing
//!   windows. The [`CheckpointAck`] riding on the following `Progress`
//!   commits them — and, for the same shards, the `Results` sent before it
//!   (per-link FIFO order makes the ack see exactly the frames before it).
//! - **Adoption** — an `Adopt` frame re-keys the host: each adopted
//!   shard starts from a fresh pipeline seeded with the checkpoint's
//!   counter bases; checkpoint state and replayed traffic then arrive as
//!   ordinary `Shard` frames, state merging into fresh per-window tables,
//!   and the re-sent `EpochEnd` re-closes, all at once, the windows the
//!   replayed epochs completed — their rows go out again as `Results`,
//!   the only copy, because the coordinator voided the uncommitted rows of
//!   the node it lost. The same message serves both recovery paths (a
//!   surviving node taking over a dead peer's shards, and a reconnecting
//!   node re-owning its previous slice).
//!
//! With [`NodeConfig::reconnect`] set, a transport failure mid-run tears
//! the session down and re-dials under the same node id with capped
//! exponential backoff — the coordinator re-admits the node under its
//! token, re-ships spec, checkpoint, and replayed tail, and the rebuilt
//! host converges on bit-identical state (its dictionary mirrors start
//! empty, and the coordinator resets its sender-side versions to match).

use std::fmt;
use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use streamkit::batch::Batch;
use streamkit::shard::shards_of_node;

use crate::deploy::remote::{
    from_body, to_body, Admit, AdoptMsg, CheckpointAck, NodeSpec, NodeStatsMsg, Progress, Register,
    Reject, MAX_ADMIT_LEN, MAX_SPEC_LEN,
};
use crate::engine::netwire::encode_shard_payload;
use crate::engine::transport::{encode_frame, FrameKind, FrameReader, Link, TransportError};
use crate::engine::NetPayload;
use crate::fault::splitmix64;
use crate::live::host::{epoch_end_watermark, HostError, ShardHost};
use crate::planner::plan_query;

/// Rows per `Results` frame.
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
    /// Result rows sent back over the final session's link.
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
    let node_id = match reader.read_frame_within(MAX_ADMIT_LEN)? {
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
    let spec: NodeSpec = match reader.read_frame_within(MAX_SPEC_LEN)? {
        (FrameKind::Spec, body) => {
            from_body(&body).map_err(|reason| NodeError::Protocol { reason })?
        }
        (other, _) => {
            return Err(NodeError::Protocol {
                reason: format!("expected Spec, got {other:?}"),
            })
        }
    };
    let mut host = build_host(node_id, &spec)?;

    // Ready, then serve until Finish.
    let mut link = Link::spawn(stream);
    link.send(FrameKind::Ready, &[]);
    let mut result_rows = 0u64;
    loop {
        let (kind, body) = reader.read_frame()?;
        match kind {
            FrameKind::Shard => {
                host.ingest_wire(body).map_err(protocol)?;
                state.shard_frames += 1;
            }
            FrameKind::Ping => {
                link.send(FrameKind::Pong, &[]);
            }
            FrameKind::Adopt => {
                let msg: AdoptMsg =
                    from_body(&body).map_err(|reason| NodeError::Protocol { reason })?;
                host.adopt(&msg.shards).map_err(|e| NodeError::Build {
                    reason: e.to_string(),
                })?;
            }
            FrameKind::EpochEnd => {
                let epoch = parse_epoch(&body)?;
                state.epochs = state.epochs.max(epoch + 1);
                // Close what the epoch's end closes and send its rows
                // *before* snapshotting: per-link FIFO order put every frame
                // of the epoch ahead of this boundary, and the ack after the
                // checkpoint commits the rows sent ahead of it.
                let closed = host.advance(epoch_end_watermark(epoch));
                result_rows += send_results(&link, epoch, closed);
                let counters = host.counters();
                let checkpoint = if spec.checkpoint_interval > 0
                    && (epoch + 1) % spec.checkpoint_interval == 0
                {
                    for (shard, source, rel, delta) in host.snapshot() {
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
                    Some(CheckpointAck {
                        epoch,
                        shards: counters.clone(),
                    })
                } else {
                    None
                };
                link.send(
                    FrameKind::Progress,
                    &to_body(&Progress {
                        node_id,
                        epoch,
                        drained_records: counters.iter().map(|c| c.drained_records).sum(),
                        usage_us: counters.iter().map(|c| c.usage_us).sum(),
                        checkpoint,
                    }),
                );
            }
            FrameKind::Finish => {
                result_rows += send_results(&link, state.epochs, host.drain());
                let stats = NodeStatsMsg {
                    node_id,
                    shards: host.counters(),
                };
                link.send(FrameKind::NodeStats, &to_body(&stats));
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

/// Sends closed-window rows as `Results` frames of at most
/// [`RESULTS_CHUNK`] rows, each a self-contained `ShardBatch` envelope
/// naming its shard, so the coordinator can commit them per shard. Returns
/// the rows sent.
fn send_results(link: &Link, epoch: u64, closed: Vec<(u32, Batch)>) -> u64 {
    let mut rows = 0;
    for (shard, batch) in closed {
        rows += batch.len() as u64;
        for chunk in batch.into_chunks(RESULTS_CHUNK) {
            let body = encode_shard_payload(&NetPayload::ShardBatch {
                shard,
                epoch,
                source: 0,
                rel: 0,
                batch: chunk,
            });
            link.send(FrameKind::Results, &body);
        }
    }
    rows
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

/// A payload the host refused is the coordinator breaking the protocol.
fn protocol(e: HostError) -> NodeError {
    NodeError::Protocol {
        reason: e.to_string(),
    }
}

/// Replans the workload the [`NodeSpec`] names and builds the host for the
/// ring slice `node_id` owns — the same construction
/// [`LiveSession`](crate::live::LiveSession) uses for its in-process pool.
fn build_host(node_id: u32, spec: &NodeSpec) -> Result<ShardHost, NodeError> {
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
    let planned = plan_query(scenario.logical_plan(), &spec.rules).map_err(|e| build_err(&e))?;
    let owned = shards_of_node(
        node_id as usize,
        spec.n_shards as usize,
        spec.n_nodes as usize,
    );
    ShardHost::new(
        &planned.plan,
        &scenario.costs(),
        spec.sources as usize,
        owned,
    )
    .map_err(|e| build_err(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Scale;
    use crate::deploy::remote::RemoteWorkload;
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
        let host = build_host(1, &spec(4, 2)).unwrap();
        let owned: Vec<u32> = host.counters().iter().map(|c| c.shard).collect();
        assert_eq!(owned, vec![2, 3]);
    }

    #[test]
    fn engines_reject_inconsistent_geometry() {
        assert!(matches!(
            build_host(2, &spec(4, 2)),
            Err(NodeError::Build { .. })
        ));
        assert!(matches!(
            build_host(0, &spec(2, 4)),
            Err(NodeError::Build { .. })
        ));
    }

    #[test]
    fn refused_payloads_are_protocol_errors() {
        let mut host = build_host(0, &spec(4, 2)).unwrap();
        let err = host
            .ingest_wire(bytes::Bytes::from_static(b"not a shard frame"))
            .map_err(protocol)
            .unwrap_err();
        assert!(
            matches!(&err, NodeError::Protocol { reason } if reason.contains("undecodable")),
            "got {err:?}"
        );
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
