//! Control-plane messages between a deployment coordinator and remote
//! `jarvis-node` executors.
//!
//! All control traffic is JSON inside [`transport`](crate::engine::transport)
//! frames; bulk shard traffic stays binary (`FrameKind::Shard` frames whose
//! bodies are untouched [`netwire`](crate::engine::netwire) envelopes, and
//! `FrameKind::Results` frames, shard-tagged `netwire` batch envelopes of
//! closed-window rows). A node cannot
//! receive a `LogicalPlan` or `CostProfile` directly — both carry closures
//! and shared tables — so the spec crosses the wire as a compact
//! [`RemoteWorkload`] descriptor naming one of the paper workloads plus the
//! planner's [`RuleConfig`]; the node replans locally, which is
//! deterministic, so both sides agree on the chain, the shard boundary, and
//! every edge schema.

use serde::{Deserialize, Serialize};

use crate::calibration::Scale;
use crate::experiment::{ScenarioSpec, Workload};
use crate::planner::RuleConfig;

/// A workload descriptor a node can rebuild locally: the paper scenarios,
/// by name and scale. Ad-hoc [`CustomWorkload`](crate::deploy::CustomWorkload)s
/// carry closures and cannot cross the wire — the builder rejects them for
/// TCP deployments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RemoteWorkload {
    /// S2SProbe on Pingmesh.
    PingmeshS2S {
        /// Input-rate scale.
        scale: Scale,
    },
    /// T2TProbe on Pingmesh.
    PingmeshT2T {
        /// Input-rate scale.
        scale: Scale,
        /// Static-table size.
        table_size: u32,
    },
    /// LogAnalytics on text logs.
    LogAnalytics {
        /// Input-rate scale.
        scale: Scale,
    },
}

impl RemoteWorkload {
    /// The descriptor for a [`ScenarioSpec`], if one exists.
    pub fn of_scenario(spec: &ScenarioSpec) -> RemoteWorkload {
        match spec.workload {
            Workload::PingmeshS2S { scale } => RemoteWorkload::PingmeshS2S { scale },
            Workload::PingmeshT2T { scale, table_size } => {
                RemoteWorkload::PingmeshT2T { scale, table_size }
            }
            Workload::LogAnalytics { scale } => RemoteWorkload::LogAnalytics { scale },
        }
    }

    /// Rebuilds the scenario on the node side. Generators never run
    /// remotely (sources live on the coordinator), so the default
    /// `rate_skew`/`seed` are irrelevant to the plan, costs, and schemas
    /// this is used for.
    pub fn to_scenario(&self) -> ScenarioSpec {
        match *self {
            RemoteWorkload::PingmeshS2S { scale } => ScenarioSpec::pingmesh_s2s(scale),
            RemoteWorkload::PingmeshT2T { scale, table_size } => {
                ScenarioSpec::pingmesh_t2t(scale, table_size)
            }
            RemoteWorkload::LogAnalytics { scale } => ScenarioSpec::log_analytics(scale),
        }
    }
}

/// Node → coordinator: the first frame on a connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Register {
    /// Shared-secret authentication token (empty when auth is disabled).
    pub token: String,
    /// Requested node id; `None` lets the coordinator assign the lowest
    /// free slot.
    pub node_id: Option<u32>,
}

/// Largest body of a connection's first frame, read before any token is
/// checked. A stranger declaring more is dropped from its header, before
/// the coordinator reads a byte of its body; the builder refuses an
/// `auth_token` whose [`Register`] would not fit
/// ([`Register::max_body_len`]).
pub const MAX_REGISTER_LEN: usize = 4 << 10;

impl Register {
    /// Encoded body length of the largest `Register` that carries `token`:
    /// its node id at the widest a node can request.
    pub fn max_body_len(token: &str) -> usize {
        to_body(&Register {
            token: token.to_string(),
            node_id: Some(u32::MAX),
        })
        .len()
    }
}

/// Largest body of the coordinator's reply to a [`Register`] a node reads:
/// an [`Admit`], or a [`Reject`] with its one-line reason.
pub const MAX_ADMIT_LEN: usize = 512;

/// Largest body of a `Spec` frame a node reads. A [`NodeSpec`] holds
/// fixed-width fields only, well under this at their widest.
pub const MAX_SPEC_LEN: usize = 1 << 10;

/// Largest body of the `Ready` frame the coordinator reads: it has none.
pub const MAX_READY_LEN: usize = 0;

/// Coordinator → node: registration accepted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Admit {
    /// The node id this executor owns for the run.
    pub node_id: u32,
}

/// Coordinator → node: registration refused.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reject {
    /// Human-readable refusal reason.
    pub reason: String,
}

/// Coordinator → node: the deployment slice this node executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// This node's id (owns `shards_of_node(node_id, n_shards, n_nodes)`).
    pub node_id: u32,
    /// SP nodes in the cluster.
    pub n_nodes: u32,
    /// Virtual shards on the fixed ring.
    pub n_shards: u32,
    /// Data sources feeding the deployment (one replica pipeline each).
    pub sources: u32,
    /// The workload to replan locally.
    pub workload: RemoteWorkload,
    /// Planner rules — must match the coordinator's for identical chains.
    pub rules: RuleConfig,
    /// Snapshot owned-shard state every N epochs and ship it back as
    /// `Ckpt` frames (0 disables checkpointing).
    pub checkpoint_interval: u64,
}

/// Node → coordinator: cumulative counters after each epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Progress {
    /// Reporting node.
    pub node_id: u32,
    /// Epoch just finished (coordinator's epoch index).
    pub epoch: u64,
    /// Input rows routed into this node's owned shards so far.
    pub drained_records: u64,
    /// Counterfactual compute charged to the owned shards so far, µs.
    pub usage_us: f64,
    /// Present when the node checkpointed at this epoch boundary: commits
    /// the `Ckpt` frames that preceded this ack, and the acked shards'
    /// `Results` (per-link FIFO order).
    pub checkpoint: Option<CheckpointAck>,
}

/// The checkpoint acknowledgement riding on a [`Progress`] message. The
/// state itself travelled just before, as binary `Ckpt` frames (one
/// `netwire` shard-state envelope each); this ack tells the coordinator
/// the set is complete and which counters accompany it, so the replay
/// buffers can be truncated to post-checkpoint traffic and the result rows
/// sent before it committed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointAck {
    /// Epoch the snapshot covers (all state up to and including it).
    pub epoch: u64,
    /// Per-owned-shard counters frozen at the snapshot.
    pub shards: Vec<ShardCounters>,
}

/// Coordinator → node: take over shards lost with a failed peer (or, on a
/// reconnect, re-own your previous shards). Checkpoint state and replayed
/// traffic follow as ordinary `Shard` frames on the same link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdoptMsg {
    /// The shards to adopt, with counter bases from the last checkpoint.
    pub shards: Vec<AdoptShard>,
}

/// One shard of an [`AdoptMsg`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdoptShard {
    /// Ring-absolute shard index.
    pub shard: u32,
    /// Drained-record base carried over from the checkpoint.
    pub drained_records: u64,
    /// Compute-usage base carried over from the checkpoint, µs.
    pub usage_us: f64,
}

/// One owned shard's final counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// Ring-absolute shard index.
    pub shard: u32,
    /// Input rows routed into the shard.
    pub drained_records: u64,
    /// Counterfactual compute charged, µs.
    pub usage_us: f64,
}

/// Node → coordinator: final per-shard accounting, sent before `Done`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStatsMsg {
    /// Reporting node.
    pub node_id: u32,
    /// One entry per owned shard, in ring order.
    pub shards: Vec<ShardCounters>,
}

/// Serializes a control message to a JSON frame body.
pub fn to_body<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg)
        .expect("control messages serialize")
        .into_bytes()
}

/// Parses a JSON control-frame body.
pub fn from_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("control frame not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("control frame malformed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_replies_fit_the_bounds_nodes_read_them_with() {
        let widest = |workload| NodeSpec {
            node_id: u32::MAX,
            n_nodes: u32::MAX,
            n_shards: u32::MAX,
            sources: u32::MAX,
            workload,
            rules: RuleConfig {
                forbid_non_incremental: false,
                quantiles_are_exact: false,
                forbid_after_stateful: false,
                max_source_parallelism: u32::MAX,
            },
            checkpoint_interval: u64::MAX,
        };
        for workload in [
            RemoteWorkload::PingmeshS2S { scale: Scale::X10 },
            RemoteWorkload::PingmeshT2T {
                scale: Scale::X10,
                table_size: u32::MAX,
            },
            RemoteWorkload::LogAnalytics { scale: Scale::X10 },
        ] {
            assert!(to_body(&widest(workload)).len() <= MAX_SPEC_LEN);
        }
        let admit = Admit { node_id: u32::MAX };
        assert!(to_body(&admit).len() <= MAX_ADMIT_LEN);
    }

    #[test]
    fn control_messages_round_trip_as_json() {
        let spec = NodeSpec {
            node_id: 1,
            n_nodes: 2,
            n_shards: 4,
            sources: 2,
            workload: RemoteWorkload::PingmeshT2T {
                scale: Scale::X5,
                table_size: 500,
            },
            rules: RuleConfig::default(),
            checkpoint_interval: 2,
        };
        let body = to_body(&spec);
        let back: NodeSpec = from_body(&body).unwrap();
        assert_eq!(back, spec);

        let ack = Progress {
            node_id: 0,
            epoch: 3,
            drained_records: 10,
            usage_us: 1.5,
            checkpoint: Some(CheckpointAck {
                epoch: 3,
                shards: vec![ShardCounters {
                    shard: 2,
                    drained_records: 10,
                    usage_us: 1.5,
                }],
            }),
        };
        let back: Progress = from_body(&to_body(&ack)).unwrap();
        assert_eq!(back, ack);

        let adopt = AdoptMsg {
            shards: vec![AdoptShard {
                shard: 3,
                drained_records: 7,
                usage_us: 0.25,
            }],
        };
        let back: AdoptMsg = from_body(&to_body(&adopt)).unwrap();
        assert_eq!(back, adopt);

        let reg = Register {
            token: "secret".into(),
            node_id: None,
        };
        let back: Register = from_body(&to_body(&reg)).unwrap();
        assert_eq!(back, reg);
        assert!(from_body::<Register>(b"{not json").is_err());
    }

    #[test]
    fn remote_workloads_rebuild_identical_plans() {
        for spec in [
            ScenarioSpec::pingmesh_s2s(Scale::X1),
            ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
            ScenarioSpec::log_analytics(Scale::X10),
        ] {
            let remote = RemoteWorkload::of_scenario(&spec);
            let rebuilt = remote.to_scenario();
            assert_eq!(
                rebuilt.logical_plan().display_chain(),
                spec.logical_plan().display_chain()
            );
            assert_eq!(rebuilt.name(), spec.name());
        }
    }
}
