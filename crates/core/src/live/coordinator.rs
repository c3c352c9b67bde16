//! The coordinator's control plane as a socket-free state machine.
//!
//! [`Coordinator`] owns every protocol rule of the TCP tier — admission,
//! epoch acks, checkpoint staging and commit, result staging, replay, the
//! [`OnNodeLoss`] policy and reconnects — and nothing else: it does no
//! I/O, shares no state and reads no clock. Each input arrives with the
//! [`Tick`] it happened at; liveness, heartbeats, the reconnect window and
//! the admission and collection timeouts are plain deadlines on that tick.
//! Its one entry point, [`Coordinator::on`], pushes [`Out`] actions for its
//! shell to carry out. [`super::remote::RemoteCluster`] is the TCP shell:
//! it turns sockets and wall time into inputs and actions into frames, and
//! waits for its next input no later than [`Coordinator::deadline`]. Unit
//! tests drive the same machine with scripted inputs.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use streamkit::batch::Batch;
use streamkit::schema::SchemaRef;
use streamkit::shard::node_of_shard;

use crate::deploy::remote::{
    from_body, to_body, Admit, AdoptMsg, AdoptShard, CheckpointAck, NodeSpec, NodeStatsMsg,
    Progress, Register, Reject, ShardCounters,
};
use crate::deploy::{DeployError, DeploymentSpec, FaultIncident, OnNodeLoss};
use crate::engine::netwire::{decode_shard_payload, peek_envelope};
use crate::engine::transport::{FrameKind, TransportError, HEADER_LEN};
use crate::engine::NetPayload;

/// Time since the coordinator started.
pub(crate) type Tick = Duration;

/// Heartbeat cadence while blocked on epoch acks (during collection it only
/// paces the TCP shell's broken-writer scan).
pub(crate) const HEARTBEAT_EVERY: Duration = Duration::from_millis(500);

/// One input to [`Coordinator::on`].
pub(crate) enum In {
    /// An accepted connection's first frame, or why it has none.
    Hello {
        peer: String,
        first: Result<(FrameKind, Bytes), TransportError>,
    },
    /// The frame the handshaking peer sent after `Admit` and `Spec`, or why
    /// none came.
    Ready(Result<FrameKind, TransportError>),
    /// A frame from a node's link, or why the link failed (reader error or
    /// broken writer). `gen` is the connection generation it concerns: a
    /// reconnect bumps the node's generation, so events of a replaced
    /// connection are dropped instead of killing the fresh one.
    Node {
        node: u32,
        gen: u32,
        got: Result<(FrameKind, Bytes), String>,
    },
    /// The session closed this epoch: announce it and await every ack.
    EpochEnd(u64),
    /// The session is done: close windows and collect results.
    Finish,
    /// Time passed.
    Tick,
}

/// One action for the shell to carry out, in order.
#[derive(Debug)]
pub(crate) enum Out {
    /// Queue a frame on `node`'s link.
    Send {
        node: usize,
        kind: FrameKind,
        body: Bytes,
    },
    /// Write a frame to the connection being handshaken.
    Reply { kind: FrameKind, body: Bytes },
    /// The connection being handshaken becomes `node`'s link, generation
    /// `gen` (0 at admission).
    Install { node: usize, gen: u32 },
    /// Tear down `node`'s link.
    Retire(usize),
}

/// Everything the session needs from the remote tier after `Finish`.
pub(crate) struct RemoteFinish {
    /// Per node, node order: final per-shard accounting (synthesized from
    /// the last checkpoint for degraded nodes).
    pub nodes: Vec<Vec<ShardCounters>>,
    /// Every committed result batch, each row once.
    pub results: Vec<Batch>,
    /// Actual socket traffic per node link, TX + RX bytes, summed across
    /// reconnects.
    pub node_wire_bytes: Vec<u64>,
    /// Node losses and how each was resolved, detection order.
    pub incidents: Vec<FaultIncident>,
    /// Checkpoint + replay bytes re-shipped for recovery.
    pub replay_bytes: u64,
    /// `Ping` heartbeats the coordinator sent.
    pub heartbeats_sent: u64,
    /// Fraction of announced epochs each shard's results cover (1.0
    /// everywhere unless shards were degraded away).
    pub shard_completeness: Vec<f64>,
}

/// What the coordinator is waiting for.
#[derive(Clone, Copy)]
enum Phase {
    /// Registrations, until every slot is filled or `until`.
    Admitting { until: Tick },
    /// Nothing: the fleet is admitted and no epoch was announced yet.
    Running,
    /// Every live node's ack of `epoch` (settled once all are in).
    Barrier { epoch: u64 },
    /// `Done` from every live node, until `until`.
    Finishing { until: Tick },
}

/// An open reconnect window for a lost node.
struct Grace {
    node: u32,
    until: Tick,
    reason: String,
    /// The shards the node owned when it was lost.
    lost: Vec<u32>,
}

/// The coordinator's protocol state (see the module docs).
pub(crate) struct Coordinator {
    on_node_loss: OnNodeLoss,
    liveness_timeout: Duration,
    reconnect_grace: Duration,
    node_timeout: Duration,
    auth_token: String,
    /// The slice pushed to every node; `node_id` is set per node.
    spec: NodeSpec,
    final_schema: SchemaRef,
    phase: Phase,
    /// Epochs announced.
    epochs_sent: u64,
    /// The epoch a loss is charged to: the barrier's, or the last one
    /// during collection.
    epoch: u64,
    /// Connection generation per node, bumped on reconnect.
    gens: Vec<u32>,
    alive: Vec<bool>,
    /// Highest epoch acked per node (max across duplicates — recovery
    /// re-sends `EpochEnd`, so duplicate acks are expected).
    acked_epoch: Vec<Option<u64>>,
    /// Last traffic seen per node (liveness clock).
    last_heard: Vec<Tick>,
    heartbeat_at: Tick,
    /// Current owner per ring shard; `None` once degraded away.
    routes: Vec<Option<usize>>,
    /// Post-checkpoint shard payloads per shard, epoch-stamped, each
    /// source's in its ship order, self-contained (see
    /// [`Coordinator::log_replay`]).
    replay: Vec<Vec<(u64, Bytes)>>,
    /// Last committed checkpoint state, keyed `(shard, source, rel)`,
    /// bodies stored verbatim (schema-free).
    ckpt_state: BTreeMap<(u32, u32, u32), Bytes>,
    /// Counters frozen at each shard's last committed checkpoint.
    ckpt_counters: BTreeMap<u32, ShardCounters>,
    /// `Ckpt` frames per node, received but not yet committed by a
    /// `Progress` ack.
    staged_ckpt: Vec<Vec<Bytes>>,
    /// `Results` per node as `(shard, batch)`, received but not yet
    /// committed by a checkpoint ack covering the shard, or by `Done`.
    staged_results: Vec<Vec<(u32, Batch)>>,
    /// Committed result batches: no recovery re-emits these rows.
    results: Vec<Batch>,
    /// Epochs covered (acked) per degraded shard, frozen at loss.
    degraded_covered: BTreeMap<u32, u64>,
    /// Shards degraded away per original owner node.
    degraded_from: Vec<Vec<u32>>,
    incidents: Vec<FaultIncident>,
    replay_bytes: u64,
    heartbeats_sent: u64,
    /// Per node during collection: its `NodeStats`, and whether it said
    /// `Done`.
    stats: Vec<Option<NodeStatsMsg>>,
    done: Vec<bool>,
    /// The node id and peer of a connection sent `Admit` + `Spec` whose
    /// `Ready` is awaited.
    handshake: Option<(u32, String)>,
    grace: Option<Grace>,
    /// Node events held while a reconnect window is open: the window is
    /// resolved before anything else happens, one loss at a time.
    deferred: VecDeque<In>,
}

/// Answers the connection being handshaken with a control message.
fn reply<T: serde::Serialize>(out: &mut Vec<Out>, kind: FrameKind, msg: &T) {
    let body = Bytes::from(to_body(msg));
    out.push(Out::Reply { kind, body });
}

/// Queues a frame for `node` and returns its length on the wire.
fn send(out: &mut Vec<Out>, node: usize, kind: FrameKind, body: Bytes) -> u64 {
    let len = (HEADER_LEN + body.len()) as u64;
    out.push(Out::Send { node, kind, body });
    len
}

fn failed(node: u32, reason: String) -> DeployError {
    DeployError::NodeFailed { node, reason }
}

impl Coordinator {
    /// A coordinator for `spec`'s TCP tier of `n_nodes` nodes over
    /// `n_shards` ring shards, admitting registrations from `now` until the
    /// node timeout. `final_schema` is the schema of `Results` rows.
    pub(crate) fn new(
        spec: &DeploymentSpec,
        n_shards: usize,
        n_nodes: usize,
        final_schema: SchemaRef,
        now: Tick,
    ) -> Self {
        let workload = spec
            .workload
            .remote_workload()
            .expect("validated TCP spec carries a remotable workload");
        let until = now + spec.node_timeout;
        Coordinator {
            on_node_loss: spec.on_node_loss,
            liveness_timeout: spec.liveness_timeout,
            reconnect_grace: spec.reconnect_grace,
            node_timeout: spec.node_timeout,
            auth_token: spec.auth_token.clone(),
            spec: NodeSpec {
                node_id: 0,
                n_nodes: n_nodes as u32,
                n_shards: n_shards as u32,
                sources: spec.sources,
                workload,
                rules: spec.rules.clone(),
                checkpoint_interval: spec.checkpoint_interval,
            },
            final_schema,
            phase: Phase::Admitting { until },
            epochs_sent: 0,
            epoch: 0,
            gens: vec![0; n_nodes],
            alive: vec![false; n_nodes],
            acked_epoch: vec![None; n_nodes],
            last_heard: vec![now; n_nodes],
            heartbeat_at: now,
            routes: (0..n_shards)
                .map(|s| Some(node_of_shard(s, n_shards, n_nodes)))
                .collect(),
            replay: vec![Vec::new(); n_shards],
            ckpt_state: BTreeMap::new(),
            ckpt_counters: BTreeMap::new(),
            staged_ckpt: vec![Vec::new(); n_nodes],
            staged_results: (0..n_nodes).map(|_| Vec::new()).collect(),
            results: Vec::new(),
            degraded_covered: BTreeMap::new(),
            degraded_from: vec![Vec::new(); n_nodes],
            incidents: Vec::new(),
            replay_bytes: 0,
            heartbeats_sent: 0,
            stats: vec![None; n_nodes],
            done: vec![false; n_nodes],
            handshake: None,
            grace: None,
            deferred: VecDeque::new(),
        }
    }

    /// The node a shard's traffic goes to; `None` once degraded away.
    pub(crate) fn owner(&self, shard: usize) -> Option<usize> {
        self.routes[shard]
    }

    /// Appends post-checkpoint payloads of `shard` (epoch-stamped, in ship
    /// order, self-contained) to its replay log, emptying `entries`.
    /// Recovery re-ships the log verbatim to an executor whose dictionary
    /// mirrors it cannot assume — fresh after a reconnect, partial on an
    /// adopter.
    pub(crate) fn log_replay(&mut self, shard: usize, entries: &mut Vec<(u64, Bytes)>) {
        self.replay[shard].append(entries);
    }

    /// True while admission or a reconnect window takes connections.
    pub(crate) fn listening(&self) -> bool {
        matches!(self.phase, Phase::Admitting { .. }) || self.grace.is_some()
    }

    /// True while a peer was sent `Admit` + `Spec` and owes `Ready`.
    pub(crate) fn handshaking(&self) -> bool {
        self.handshake.is_some()
    }

    /// True when nothing is awaited: every slot admitted, the barrier
    /// acked by every live node, or every live node `Done`.
    pub(crate) fn settled(&self) -> bool {
        self.grace.is_none()
            && self.handshake.is_none()
            && match self.phase {
                Phase::Admitting { .. } => false,
                Phase::Running => true,
                Phase::Barrier { epoch } => self.acked_all(epoch),
                Phase::Finishing { .. } => {
                    (0..self.alive.len()).all(|i| !self.alive[i] || self.done[i])
                }
            }
    }

    /// True once `node` said `Done`: its reader has returned.
    pub(crate) fn said_done(&self, node: usize) -> bool {
        self.done[node]
    }

    /// The latest tick by which the shell must call [`Coordinator::on`]
    /// again (with [`In::Tick`] if nothing else happened) while it waits.
    pub(crate) fn deadline(&self) -> Option<Tick> {
        if let Some(g) = &self.grace {
            return Some(g.until);
        }
        match self.phase {
            Phase::Admitting { until } => Some(until),
            Phase::Running => None,
            Phase::Barrier { epoch } => Some(
                (0..self.alive.len())
                    .filter(|&i| self.pending_ack(i, epoch))
                    .map(|i| self.last_heard[i] + self.liveness_timeout)
                    .fold(self.heartbeat_at, Tick::min),
            ),
            Phase::Finishing { until } => Some(until.min(self.heartbeat_at)),
        }
    }

    /// Handles one input at `now`, then whatever deadlines are due, pushing
    /// the resulting actions onto `out`. An error ends the deployment; the
    /// actions pushed before it still apply.
    pub(crate) fn on(
        &mut self,
        now: Tick,
        input: In,
        out: &mut Vec<Out>,
    ) -> Result<(), DeployError> {
        if self.grace.is_some() && matches!(input, In::Node { .. }) {
            self.deferred.push_back(input);
        } else {
            self.handle(now, input, out)?;
        }
        loop {
            if !self.settled() && self.handshake.is_none() {
                self.fire_due(now, out)?;
            }
            if self.grace.is_some() {
                return Ok(());
            }
            match self.deferred.pop_front() {
                Some(input) => self.handle(now, input, out)?,
                None => return Ok(()),
            }
        }
    }

    fn handle(&mut self, now: Tick, input: In, out: &mut Vec<Out>) -> Result<(), DeployError> {
        match input {
            In::Hello { peer, first } => self.on_hello(peer, first, out),
            In::Ready(reply) => self.on_ready(now, reply, out),
            In::Node { node, gen, got } => {
                let i = node as usize;
                if !self.alive[i] || gen != self.gens[i] {
                    return Ok(());
                }
                match got {
                    Ok((kind, body)) => {
                        self.last_heard[i] = now;
                        self.on_frame(now, node, kind, body, out)
                    }
                    Err(error) => self.lose(now, node, error, out),
                }
            }
            In::EpochEnd(epoch) => {
                self.epochs_sent += 1;
                self.epoch = epoch;
                self.announce(now, Phase::Barrier { epoch }, out);
                Ok(())
            }
            In::Finish => {
                self.epoch = self.epochs_sent.saturating_sub(1);
                let until = now + self.node_timeout;
                self.announce(now, Phase::Finishing { until }, out);
                Ok(())
            }
            In::Tick => Ok(()),
        }
    }

    /// Starts waiting in `phase` (a barrier or collection) and tells
    /// every live node so. The liveness clock starts here: time the session
    /// spent (which produces no return traffic) never counts against a
    /// node.
    fn announce(&mut self, now: Tick, phase: Phase, out: &mut Vec<Out>) {
        let (kind, body) = match phase {
            Phase::Barrier { epoch } => (
                FrameKind::EpochEnd,
                Bytes::from(epoch.to_le_bytes().to_vec()),
            ),
            _ => (FrameKind::Finish, Bytes::new()),
        };
        for node in (0..self.alive.len()).filter(|&i| self.alive[i]) {
            send(out, node, kind, body.clone());
        }
        self.phase = phase;
        self.reset_liveness(now);
        self.heartbeat_at = now + HEARTBEAT_EVERY;
    }

    fn finishing(&self) -> bool {
        matches!(self.phase, Phase::Finishing { .. })
    }

    /// Fires the deadlines due at `now`: a lapsed reconnect window, the
    /// admission or collection timeout, the heartbeat, and a silent node's
    /// liveness deadline.
    fn fire_due(&mut self, now: Tick, out: &mut Vec<Out>) -> Result<(), DeployError> {
        if let Some(g) = &self.grace {
            if now >= g.until {
                let g = self.grace.take().expect("checked above");
                self.apply_policy(now, g.node, g.reason, g.lost, out)?;
            }
            return Ok(());
        }
        let n = self.alive.len();
        match self.phase {
            Phase::Admitting { until } if now >= until => return Err(self.timed_out(&self.alive)),
            Phase::Finishing { until } if now >= until => return Err(self.timed_out(&self.done)),
            Phase::Barrier { epoch } => {
                if now >= self.heartbeat_at {
                    for node in (0..n).filter(|&i| self.alive[i]) {
                        send(out, node, FrameKind::Ping, Bytes::new());
                        self.heartbeats_sent += 1;
                    }
                }
                let timeout = self.liveness_timeout;
                let silent = (0..n)
                    .filter(|&i| self.pending_ack(i, epoch) && now >= self.last_heard[i] + timeout)
                    .min_by_key(|&i| self.last_heard[i]);
                if let Some(i) = silent {
                    let reason = format!(
                        "no epoch ack within the liveness deadline ({} ms)",
                        timeout.as_millis()
                    );
                    self.lose(now, i as u32, reason, out)?;
                }
            }
            // No pings during collection: nodes are already streaming
            // results, their traffic is the liveness signal.
            _ => {}
        }
        if now >= self.heartbeat_at {
            self.heartbeat_at = now + HEARTBEAT_EVERY;
        }
        Ok(())
    }

    /// The admission or collection timeout, with how many nodes `met` it.
    fn timed_out(&self, met: &[bool]) -> DeployError {
        DeployError::NodeTimeout {
            waited_ms: self.node_timeout.as_millis() as u64,
            registered: met.iter().filter(|m| **m).count() as u32,
            expected: met.len() as u32,
        }
    }

    /// A connection's first frame. During admission it may register into
    /// any free slot, and a protocol-level failure (version mismatch, wrong
    /// token, unusable node id) aborts the deployment; in a reconnect
    /// window only the lost node re-registering is answered, and anyone
    /// else is turned away. Anything that is not a `Register` — garbage,
    /// scanners, half-open probes, or a `Register` body that does not
    /// parse and so cannot carry the token that would make its failure
    /// ours — is a stranger and is dropped unanswered.
    fn on_hello(
        &mut self,
        peer: String,
        first: Result<(FrameKind, Bytes), TransportError>,
        out: &mut Vec<Out>,
    ) -> Result<(), DeployError> {
        let window = self.grace.as_ref().map(|g| g.node);
        let fail = |reason| DeployError::HandshakeFailed {
            peer: peer.clone(),
            reason,
        };
        let reg = match first {
            _ if !self.listening() => return Ok(()),
            Err(TransportError::VersionMismatch { got, want }) if window.is_none() => {
                return Err(fail(format!(
                    "protocol version mismatch: peer speaks v{got}, coordinator wants v{want}"
                )));
            }
            Ok((FrameKind::Register, body)) => match from_body::<Register>(&body) {
                Ok(reg) => reg,
                Err(_) => return Ok(()),
            },
            _ => return Ok(()),
        };
        let n = self.alive.len();
        let slot = match (window, reg.node_id) {
            (Some(lost), id) if reg.token == self.auth_token && id == Some(lost) => Ok(lost),
            (Some(lost), _) => Err(format!("reconnect window is for node {lost} only")),
            _ if reg.token != self.auth_token => Err("authentication failed".to_string()),
            (None, Some(id)) if id as usize >= n => {
                Err(format!("node id {id} out of range (cluster has {n} slots)"))
            }
            (None, Some(id)) if self.alive[id as usize] => {
                Err(format!("node id {id} already registered"))
            }
            (None, Some(id)) => Ok(id),
            (None, None) => Ok(self.alive.iter().position(|a| !a).expect("a free slot") as u32),
        };
        let node_id = match slot {
            Ok(id) => id,
            Err(reason) => {
                let reject = Reject { reason };
                reply(out, FrameKind::Reject, &reject);
                if window.is_some() {
                    return Ok(());
                }
                return Err(fail(reject.reason));
            }
        };
        reply(out, FrameKind::Admit, &Admit { node_id });
        let mut spec = self.spec.clone();
        spec.node_id = node_id;
        reply(out, FrameKind::Spec, &spec);
        self.handshake = Some((node_id, peer));
        Ok(())
    }

    /// The handshaking peer's reply. `Ready` installs it: into its slot
    /// during admission, where anything else is fatal (the slice has
    /// nowhere else to go), or as the lost node's new connection, which is
    /// then re-seeded from its checkpoint plus replay.
    fn on_ready(
        &mut self,
        now: Tick,
        reply: Result<FrameKind, TransportError>,
        out: &mut Vec<Out>,
    ) -> Result<(), DeployError> {
        let Some((node, peer)) = self.handshake.take() else {
            return Ok(());
        };
        let i = node as usize;
        let refused = match reply {
            Ok(FrameKind::Ready) => None,
            Ok(other) => Some(format!("expected Ready, got {other:?}")),
            Err(e) => Some(format!("node {node} never came Ready: {e}")),
        };
        let Some(g) = self.grace.take() else {
            if let Some(reason) = refused {
                return Err(DeployError::HandshakeFailed { peer, reason });
            }
            self.alive[i] = true;
            out.push(Out::Install { node: i, gen: 0 });
            if self.alive.iter().all(|a| *a) {
                self.phase = Phase::Running;
            }
            return Ok(());
        };
        if refused.is_some() {
            self.grace = Some(g);
            return Ok(());
        }
        self.gens[i] += 1;
        self.alive[i] = true;
        self.acked_epoch[i] = None;
        let gen = self.gens[i];
        out.push(Out::Install { node: i, gen });
        let shipped = self.restore(i, &g.lost, out);
        self.record(node, g.reason, "reconnected", shipped);
        self.reset_liveness(now);
        Ok(())
    }

    /// One frame from a live node. `Progress`, `Pong`, `Ckpt` and `Results`
    /// are legal at any time, `NodeStats` and `Done` during collection;
    /// anything else is a node failure.
    fn on_frame(
        &mut self,
        now: Tick,
        node: u32,
        kind: FrameKind,
        body: Bytes,
        out: &mut Vec<Out>,
    ) -> Result<(), DeployError> {
        let i = node as usize;
        let refused = match kind {
            _ if matches!(self.phase, Phase::Admitting { .. }) => {
                Some(format!("unexpected {kind:?} frame during admission"))
            }
            FrameKind::Progress => self.on_progress(node, &body).err(),
            FrameKind::Pong => None,
            FrameKind::Ckpt => {
                self.staged_ckpt[i].push(body);
                None
            }
            FrameKind::Results => self.stage_results(i, body).err(),
            FrameKind::NodeStats if self.finishing() => {
                let msg: NodeStatsMsg = from_body(&body).map_err(|e| failed(node, e))?;
                if msg.node_id != node {
                    return Err(failed(node, format!("stats claim node {}", msg.node_id)));
                }
                self.stats[i] = Some(msg);
                None
            }
            FrameKind::Done if self.finishing() => {
                if self.stats[i].is_none() {
                    return Err(failed(node, "Done before NodeStats".to_string()));
                }
                // Everything the node will ever send is in.
                self.commit_results(i, |_| true);
                self.done[i] = true;
                None
            }
            other if self.finishing() => Some(format!("unexpected {other:?} frame during finish")),
            other => Some(format!("unexpected {other:?} frame mid-run")),
        };
        match refused {
            Some(reason) => self.lose(now, node, reason, out),
            None => Ok(()),
        }
    }

    /// Records a `Progress` ack (idempotent under recovery's re-sent
    /// boundaries) and commits any checkpoint riding on it.
    fn on_progress(&mut self, node: u32, body: &[u8]) -> Result<(), String> {
        let i = node as usize;
        let p: Progress = from_body(body)?;
        if p.node_id != node {
            return Err(format!("progress claims node {}", p.node_id));
        }
        self.acked_epoch[i] = Some(self.acked_epoch[i].map_or(p.epoch, |a| a.max(p.epoch)));
        p.checkpoint
            .map_or(Ok(()), |ack| self.commit_checkpoint(i, &ack))
    }

    /// Decodes one `Results` body — a self-contained `ShardBatch` envelope
    /// in the output schema — and stages it for `node`. A body that is not
    /// one, or names a shard off the ring, is a node failure.
    fn stage_results(&mut self, node: usize, body: Bytes) -> Result<(), String> {
        match decode_shard_payload(body, std::slice::from_ref(&self.final_schema)) {
            Ok(NetPayload::ShardBatch { shard, batch, .. })
                if (shard as usize) < self.routes.len() =>
            {
                self.staged_results[node].push((shard, batch));
                Ok(())
            }
            Ok(_) => Err("results frame is not a batch for a ring shard".to_string()),
            Err(e) => Err(format!("results frame undecodable: {e}")),
        }
    }

    /// Commits the staged `Ckpt` frames a `Progress` ack vouches for:
    /// replaces the stored snapshot for every acked shard, truncates the
    /// replay logs to post-checkpoint traffic, and commits the acked
    /// shards' staged `Results` — recovery from this checkpoint would never
    /// re-emit them. A malformed staged frame is a node failure, found
    /// before anything is replaced — never a silent truncation.
    fn commit_checkpoint(&mut self, node: usize, ack: &CheckpointAck) -> Result<(), String> {
        let staged = std::mem::take(&mut self.staged_ckpt[node]);
        let mut fresh = Vec::with_capacity(staged.len());
        for body in staged {
            let env = peek_envelope(&body)
                .filter(|env| env.is_state)
                .ok_or_else(|| "checkpoint frame is not a shard-state envelope".to_string())?;
            fresh.push(((env.shard, env.source, env.rel), body));
        }
        // Snapshots are whole, so the previous generation for these shards
        // is dead weight — drop it before installing the new one, in case
        // state shrank and some (source, rel) slot vanished.
        let acked = |shard: u32| ack.shards.iter().any(|c| c.shard == shard);
        self.ckpt_state.retain(|&(shard, _, _), _| !acked(shard));
        self.ckpt_state.extend(fresh);
        for c in &ack.shards {
            self.replay[c.shard as usize].retain(|(e, _)| *e > ack.epoch);
            self.ckpt_counters.insert(c.shard, c.clone());
        }
        self.commit_results(node, acked);
        Ok(())
    }

    /// Commits `node`'s staged results of the shards `acked` selects; the
    /// rest stay staged.
    fn commit_results(&mut self, node: usize, acked: impl Fn(u32) -> bool) {
        let (commit, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.staged_results[node])
            .into_iter()
            .partition(|(shard, _)| acked(*shard));
        self.staged_results[node] = keep;
        self.results
            .extend(commit.into_iter().map(|(_, batch)| batch));
    }

    /// A detected node loss: retire the link, void what it staged, then
    /// open the reconnect window or apply the [`OnNodeLoss`] policy.
    /// Idempotent per node; a node that said `Done` has nothing left to
    /// lose.
    fn lose(
        &mut self,
        now: Tick,
        node: u32,
        reason: String,
        out: &mut Vec<Out>,
    ) -> Result<(), DeployError> {
        let i = node as usize;
        if !self.alive[i] || self.done[i] {
            return Ok(());
        }
        // A node that registered and then died leaves a slice nobody else
        // can claim.
        if let Phase::Admitting { .. } = self.phase {
            return Err(DeployError::NodeLost { node, reason });
        }
        self.alive[i] = false;
        // Uncommitted frames die with the node: the recovered shards
        // re-emit exactly these rows from checkpoint plus replay.
        self.staged_ckpt[i].clear();
        self.staged_results[i].clear();
        self.stats[i] = None;
        out.push(Out::Retire(i));
        let lost: Vec<u32> = (0..self.routes.len())
            .filter(|&s| self.routes[s] == Some(i))
            .map(|s| s as u32)
            .collect();
        if self.reconnect_grace > Duration::ZERO {
            let until = now + self.reconnect_grace;
            self.grace = Some(Grace {
                node,
                until,
                reason,
                lost,
            });
            return Ok(());
        }
        self.apply_policy(now, node, reason, lost, out)
    }

    /// Resolves a loss no reconnect covered, per [`OnNodeLoss`].
    fn apply_policy(
        &mut self,
        now: Tick,
        node: u32,
        reason: String,
        lost: Vec<u32>,
        out: &mut Vec<Out>,
    ) -> Result<(), DeployError> {
        let i = node as usize;
        match self.on_node_loss {
            OnNodeLoss::Fail => {
                self.record(node, reason.clone(), "failed", 0);
                return Err(failed(node, reason));
            }
            OnNodeLoss::Reassign => {
                if self.finishing() {
                    let why =
                        "lost during result collection; reassignment needs a running epoch loop";
                    return Err(failed(node, format!("{reason} ({why})")));
                }
                let survivors: Vec<usize> =
                    (0..self.alive.len()).filter(|&j| self.alive[j]).collect();
                if survivors.is_empty() {
                    let reason = format!("{reason} (no surviving node to reassign to)");
                    return Err(failed(node, reason));
                }
                // Spread the lost slice over survivors with the same ring
                // function that placed it, so re-loss stays deterministic.
                let mut groups: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
                for &s in &lost {
                    let t =
                        survivors[node_of_shard(s as usize, self.routes.len(), survivors.len())];
                    groups.entry(t).or_default().push(s);
                }
                let shipped = groups
                    .into_iter()
                    .map(|(target, shards)| self.restore(target, &shards, out))
                    .sum();
                self.record(node, reason, "reassigned", shipped);
            }
            OnNodeLoss::Degrade => {
                let covered = self.acked_epoch[i].map_or(0, |a| a + 1);
                for &s in &lost {
                    self.routes[s as usize] = None;
                    self.degraded_covered.insert(s, covered);
                    self.replay[s as usize].clear();
                    self.degraded_from[i].push(s);
                }
                self.record(node, reason, "degraded", 0);
            }
        }
        self.reset_liveness(now);
        Ok(())
    }

    /// Logs how a loss was resolved.
    fn record(&mut self, node: u32, reason: String, action: &str, replay_bytes: u64) {
        self.replay_bytes += replay_bytes;
        self.incidents.push(FaultIncident {
            node,
            epoch: self.epoch,
            reason,
            action: action.to_string(),
            replay_bytes,
        });
    }

    /// Re-seeds `shards` onto `target`: an [`AdoptMsg`] with counter bases
    /// from the last checkpoint, the stored checkpoint state, the logged
    /// post-checkpoint traffic in original order, then a re-sent epoch
    /// boundary (and `Finish`, mid-collection) so the target's ack covers
    /// the adopted work. Returns the recovery bytes shipped.
    fn restore(&mut self, target: usize, shards: &[u32], out: &mut Vec<Out>) -> u64 {
        let adopt = AdoptMsg {
            shards: shards
                .iter()
                .map(|&s| {
                    let base = self.ckpt_counters.get(&s);
                    AdoptShard {
                        shard: s,
                        drained_records: base.map_or(0, |c| c.drained_records),
                        usage_us: base.map_or(0.0, |c| c.usage_us),
                    }
                })
                .collect(),
        };
        send(out, target, FrameKind::Adopt, Bytes::from(to_body(&adopt)));
        let mut shipped = 0u64;
        for &s in shards {
            let state = self.ckpt_state.range((s, 0, 0)..=(s, u32::MAX, u32::MAX));
            let logged = self.replay[s as usize].iter();
            for body in state.map(|(_, b)| b).chain(logged.map(|(_, b)| b)) {
                shipped += send(out, target, FrameKind::Shard, body.clone());
            }
            self.routes[s as usize] = Some(target);
        }
        if self.epochs_sent > 0 {
            let body = Bytes::from(self.epoch.to_le_bytes().to_vec());
            send(out, target, FrameKind::EpochEnd, body);
        }
        if self.finishing() {
            send(out, target, FrameKind::Finish, Bytes::new());
        }
        shipped
    }

    /// True while `node` is alive and still owes an ack for `epoch`.
    fn pending_ack(&self, i: usize, epoch: u64) -> bool {
        self.alive[i] && self.acked_epoch[i].is_none_or(|a| a < epoch)
    }

    /// True when every live node has acked `epoch` (vacuously true when
    /// no node is left alive — a fully degraded run still completes).
    fn acked_all(&self, epoch: u64) -> bool {
        (0..self.alive.len()).all(|i| !self.pending_ack(i, epoch))
    }

    /// Restarts every live node's liveness clock (after a boundary or a
    /// recovery stall, so time spent elsewhere is not charged to them).
    fn reset_liveness(&mut self, now: Tick) {
        for (heard, alive) in self.last_heard.iter_mut().zip(&self.alive) {
            if *alive {
                *heard = now;
            }
        }
    }

    /// The collection's outcome once [`Coordinator::settled`] after
    /// [`In::Finish`]: every surviving node must have acked every announced
    /// boundary — the exactness guarantee that no epoch's traffic went
    /// missing. `node_wire_bytes` is the shell's socket count per node.
    pub(crate) fn into_finish(
        self,
        node_wire_bytes: Vec<u64>,
    ) -> Result<RemoteFinish, DeployError> {
        let last_epoch = self.epochs_sent.saturating_sub(1);
        for (i, &acked) in self.acked_epoch.iter().enumerate() {
            if self.epochs_sent > 0 && self.alive[i] && acked != Some(last_epoch) {
                let reason = format!("acked through epoch {acked:?}, expected {last_epoch}");
                return Err(failed(i as u32, reason));
            }
        }
        let nodes = self
            .stats
            .into_iter()
            .zip(&self.degraded_from)
            .map(|(slot, degraded)| match slot {
                Some(msg) => msg.shards,
                // Degraded (or reassigned-away) nodes report nothing; their
                // last checkpointed counters stand in for the lost shards.
                None => degraded
                    .iter()
                    .filter_map(|s| self.ckpt_counters.get(s).cloned())
                    .collect(),
            })
            .collect();
        let mut shard_completeness = vec![1.0f64; self.routes.len()];
        for (&s, &covered) in &self.degraded_covered {
            if self.epochs_sent > 0 {
                shard_completeness[s as usize] = covered as f64 / self.epochs_sent as f64;
            }
        }
        Ok(RemoteFinish {
            nodes,
            results: self.results,
            node_wire_bytes,
            incidents: self.incidents,
            replay_bytes: self.replay_bytes,
            heartbeats_sent: self.heartbeats_sent,
            shard_completeness,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Scale;
    use crate::deploy::remote::{MAX_ADMIT_LEN, MAX_SPEC_LEN};
    use crate::deploy::{BackendKind, Deployment, TransportKind};
    use crate::engine::netwire::encode_shard_payload;
    use crate::experiment::ScenarioSpec;
    use crate::fault::splitmix64;
    use std::collections::BTreeSet;
    use streamkit::batch::Column;
    use streamkit::ops::StatePartial;
    use streamkit::schema::{DataType, Field, Schema};

    const TOKEN: &str = "secret";
    const LIVENESS: Duration = Duration::from_millis(1000);

    fn ms(n: u64) -> Tick {
        Duration::from_millis(n)
    }

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("tag", DataType::U64)])
    }

    /// A scripted fleet of `nodes` over `shards` ring shards, admitted, at
    /// tick 0. Every input goes through [`Coordinator::on`]; the actions
    /// collect in `out`.
    struct Sim {
        c: Coordinator,
        out: Vec<Out>,
        now: Tick,
    }

    impl Sim {
        fn new(nodes: u32, shards: u32, policy: OnNodeLoss, grace: Duration) -> Sim {
            let mut sim = Sim::admitting(nodes, shards, policy, grace);
            for _ in 0..nodes {
                sim.admit(None).expect("admitted");
            }
            assert!(sim.c.settled(), "the fleet is complete");
            sim.out.clear();
            sim
        }

        /// The same fleet before any node registered.
        fn admitting(nodes: u32, shards: u32, policy: OnNodeLoss, grace: Duration) -> Sim {
            let spec = Deployment::builder()
                .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
                .sources(2)
                .sp_shards(shards)
                .sp_nodes(nodes)
                .backend(BackendKind::Live)
                .transport(TransportKind::Tcp)
                .listen_addr("127.0.0.1:0")
                .auth_token(TOKEN)
                .on_node_loss(policy)
                .reconnect_grace(grace)
                .liveness_timeout(LIVENESS)
                .node_timeout(ms(300))
                .checkpoint_interval(1)
                .spec()
                .expect("valid TCP spec");
            let c = Coordinator::new(&spec, shards as usize, nodes as usize, schema(), ms(0));
            Sim {
                c,
                out: Vec::new(),
                now: ms(0),
            }
        }

        fn on(&mut self, input: In) -> Result<(), DeployError> {
            self.c.on(self.now, input, &mut self.out)
        }

        fn at(&mut self, t: u64, input: In) -> Result<(), DeployError> {
            self.now = ms(t);
            self.on(input)
        }

        fn hello(&mut self, node_id: Option<u32>, token: &str) -> Result<(), DeployError> {
            let reg = Register {
                token: token.to_string(),
                node_id,
            };
            let first = Ok((FrameKind::Register, Bytes::from(to_body(&reg))));
            let peer = "peer".to_string();
            self.on(In::Hello { peer, first })
        }

        fn admit(&mut self, node_id: Option<u32>) -> Result<(), DeployError> {
            self.hello(node_id, TOKEN)?;
            self.on(In::Ready(Ok(FrameKind::Ready)))
        }

        fn frame(
            &mut self,
            node: u32,
            gen: u32,
            kind: FrameKind,
            body: Bytes,
        ) -> Result<(), DeployError> {
            self.on(In::Node {
                node,
                gen,
                got: Ok((kind, body)),
            })
        }

        fn broken(&mut self, node: u32, gen: u32) -> Result<(), DeployError> {
            let got = Err("connection reset".to_string());
            self.on(In::Node { node, gen, got })
        }

        /// `node`'s ack of `epoch`, committing a checkpoint of `ckpt`.
        fn ack(
            &mut self,
            node: u32,
            gen: u32,
            epoch: u64,
            ckpt: &[u32],
        ) -> Result<(), DeployError> {
            let shards = ckpt
                .iter()
                .map(|&shard| ShardCounters {
                    shard,
                    drained_records: 1,
                    usage_us: 1.0,
                })
                .collect();
            let p = Progress {
                node_id: node,
                epoch,
                drained_records: 0,
                usage_us: 0.0,
                checkpoint: (!ckpt.is_empty()).then_some(CheckpointAck { epoch, shards }),
            };
            self.frame(node, gen, FrameKind::Progress, Bytes::from(to_body(&p)))
        }

        fn ckpt(&mut self, node: u32, gen: u32, shard: u32) -> Result<(), DeployError> {
            let state = NetPayload::ShardState {
                shard,
                epoch: 0,
                source: 0,
                rel: 0,
                delta: StatePartial::Group(Vec::new()),
            };
            self.frame(node, gen, FrameKind::Ckpt, encode_shard_payload(&state))
        }

        /// One result row of `shard`, identified by `tag`.
        fn results(
            &mut self,
            node: u32,
            gen: u32,
            shard: u32,
            tag: u64,
        ) -> Result<(), DeployError> {
            let batch = Batch {
                schema: schema(),
                timestamps: vec![0],
                columns: vec![Column::U64(vec![tag])],
            };
            let rows = NetPayload::ShardBatch {
                shard,
                epoch: 0,
                source: 0,
                rel: 0,
                batch,
            };
            self.frame(node, gen, FrameKind::Results, encode_shard_payload(&rows))
        }

        fn stats_and_done(&mut self, node: u32, gen: u32) -> Result<(), DeployError> {
            let stats = NodeStatsMsg {
                node_id: node,
                shards: Vec::new(),
            };
            self.frame(
                node,
                gen,
                FrameKind::NodeStats,
                Bytes::from(to_body(&stats)),
            )?;
            self.frame(node, gen, FrameKind::Done, Bytes::new())
        }

        /// The frames sent since the last call, as `(node, kind)`.
        fn sent(&mut self) -> Vec<(usize, FrameKind)> {
            self.out
                .drain(..)
                .filter_map(|o| match o {
                    Out::Send { node, kind, .. } => Some((node, kind)),
                    _ => None,
                })
                .collect()
        }
    }

    fn tags(results: &[Batch]) -> Vec<u64> {
        let mut tags: Vec<u64> = results
            .iter()
            .flat_map(|b| match &b.columns[0] {
                Column::U64(v) => v.clone(),
                other => panic!("tag column is U64, got {other:?}"),
            })
            .collect();
        tags.sort_unstable();
        tags
    }

    #[test]
    fn admission_answers_within_the_bounds_nodes_read_with() {
        // Every refusal a registration can meet, and an admission.
        let mut sim = Sim::admitting(2, 4, OnNodeLoss::Fail, Duration::from_secs(1));
        assert!(sim.hello(Some(u32::MAX), TOKEN).is_err(), "out of range");
        assert!(sim.hello(None, "wrong").is_err(), "bad token");
        sim.admit(Some(0)).unwrap();
        assert!(sim.hello(Some(0), TOKEN).is_err(), "already registered");
        sim.admit(None).unwrap();
        sim.on(In::EpochEnd(0)).unwrap();
        sim.broken(1, 0).unwrap();
        sim.hello(Some(0), TOKEN).unwrap();
        let mut kinds = Vec::new();
        for o in sim.out {
            let Out::Reply { kind, body } = o else {
                continue;
            };
            let max = if kind == FrameKind::Spec {
                MAX_SPEC_LEN
            } else {
                MAX_ADMIT_LEN
            };
            assert!(body.len() <= max, "{kind:?} of {} bytes", body.len());
            kinds.push(kind);
        }
        use FrameKind::{Admit, Reject, Spec};
        assert_eq!(
            kinds,
            [Reject, Reject, Admit, Spec, Reject, Admit, Spec, Reject]
        );
    }

    #[test]
    fn fail_surfaces_the_loss_as_a_typed_error() {
        let mut sim = Sim::new(2, 4, OnNodeLoss::Fail, Duration::ZERO);
        sim.on(In::EpochEnd(0)).unwrap();
        assert_eq!(
            sim.sent(),
            [(0, FrameKind::EpochEnd), (1, FrameKind::EpochEnd)]
        );
        let err = sim.broken(1, 0).unwrap_err();
        assert!(
            matches!(err, DeployError::NodeFailed { node: 1, .. }),
            "{err:?}"
        );
        assert!(matches!(sim.out[..], [Out::Retire(1)]));
    }

    #[test]
    fn reassign_picks_survivors_with_node_of_shard() {
        // Six shards on three nodes: node 1 owns shards 2 and 3. Over the
        // two survivors, node_of_shard puts shard 2 in the first half and
        // shard 3 in the second, so they go to nodes 0 and 2.
        let mut sim = Sim::new(3, 6, OnNodeLoss::Reassign, Duration::ZERO);
        let logged = Bytes::from(vec![7u8; 100]);
        sim.c.log_replay(3, &mut vec![(0, logged)]);
        sim.on(In::EpochEnd(0)).unwrap();
        sim.sent();
        sim.ack(0, 0, 0, &[]).unwrap();
        sim.ack(2, 0, 0, &[]).unwrap();
        assert!(!sim.c.settled(), "node 1 still owes its ack");
        sim.broken(1, 0).unwrap();
        assert!(sim.c.settled(), "the survivors acked");
        assert_eq!((sim.c.owner(2), sim.c.owner(3)), (Some(0), Some(2)));
        let survivor = |s| node_of_shard(s, 6, 2);
        assert_eq!([survivor(2), survivor(3)], [0, 1], "indices into [0, 2]");
        assert!(matches!(sim.out[0], Out::Retire(1)));
        use FrameKind::{Adopt, EpochEnd, Shard};
        let sent = sim.sent();
        assert_eq!(
            sent,
            [
                (0, Adopt),
                (0, EpochEnd),
                (2, Adopt),
                (2, Shard),
                (2, EpochEnd)
            ]
        );
        let incident = &sim.c.incidents[0];
        assert_eq!((incident.node, incident.action.as_str()), (1, "reassigned"));
        assert_eq!(incident.replay_bytes, (HEADER_LEN + 100) as u64);
    }

    #[test]
    fn degrade_reports_completeness_as_acked_over_announced() {
        let mut sim = Sim::new(2, 4, OnNodeLoss::Degrade, Duration::ZERO);
        for epoch in 0..6 {
            sim.on(In::EpochEnd(epoch)).unwrap();
            sim.ack(0, 0, epoch, &[]).unwrap();
            if epoch < 3 {
                sim.ack(1, 0, epoch, &[]).unwrap();
            } else if epoch == 3 {
                sim.broken(1, 0).unwrap();
            }
            assert!(sim.c.settled());
        }
        assert_eq!(sim.c.owner(2), None, "degraded shards take no traffic");
        sim.on(In::Finish).unwrap();
        sim.stats_and_done(0, 0).unwrap();
        assert!(sim.c.settled());
        let fin = sim.c.into_finish(vec![0, 0]).unwrap();
        // Node 1 acked epochs 0..=2 of the six announced.
        assert_eq!(fin.shard_completeness, [1.0, 1.0, 0.5, 0.5]);
        assert_eq!(fin.incidents[0].action, "degraded");
    }

    #[test]
    fn a_reconnect_inside_the_grace_window_reseeds_the_node() {
        let mut sim = Sim::new(2, 4, OnNodeLoss::Fail, Duration::from_secs(10));
        sim.at(0, In::EpochEnd(0)).unwrap();
        sim.at(
            100,
            In::Node {
                node: 1,
                gen: 0,
                got: Err("connection reset".to_string()),
            },
        )
        .unwrap();
        assert!(sim.c.listening(), "the window is open");
        assert_eq!(sim.c.deadline(), Some(ms(10_100)));
        // Traffic of other nodes waits for the window.
        sim.now = ms(200);
        sim.ack(0, 0, 0, &[]).unwrap();
        assert_eq!(
            sim.c.acked_epoch[0], None,
            "deferred while the window is open"
        );
        // Someone else knocking is turned away; the window stays open.
        sim.now = ms(5_000);
        sim.hello(Some(0), TOKEN).unwrap();
        assert!(matches!(
            sim.out.last(),
            Some(Out::Reply {
                kind: FrameKind::Reject,
                ..
            })
        ));
        assert!(sim.c.listening() && !sim.c.handshaking());
        sim.out.clear();
        sim.admit(Some(1)).unwrap();
        assert!(!sim.c.listening());
        assert!(matches!(sim.out[2], Out::Install { node: 1, gen: 1 }));
        assert_eq!(sim.c.acked_epoch[0], Some(0), "the deferred ack is in");
        // The re-seed, then the heartbeat the window held back.
        use FrameKind::{Adopt, EpochEnd, Ping};
        assert_eq!(
            sim.sent(),
            [(1, Adopt), (1, EpochEnd), (0, Ping), (1, Ping)]
        );
        assert_eq!(sim.c.incidents[0].action, "reconnected");
        // The replaced connection's last words change nothing.
        sim.broken(1, 0).unwrap();
        assert!(sim.out.is_empty());
        assert!(!sim.c.settled());
        sim.ack(1, 1, 0, &[]).unwrap();
        assert!(sim.c.settled());
    }

    #[test]
    fn a_lapsed_grace_window_applies_the_policy() {
        let mut sim = Sim::new(2, 4, OnNodeLoss::Fail, Duration::from_secs(10));
        sim.at(0, In::EpochEnd(0)).unwrap();
        sim.broken(1, 0).unwrap();
        sim.at(9_999, In::Tick).unwrap();
        let err = sim.at(10_000, In::Tick).unwrap_err();
        assert!(
            matches!(err, DeployError::NodeFailed { node: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn stale_generation_events_are_dropped() {
        let mut sim = Sim::new(2, 4, OnNodeLoss::Fail, Duration::from_secs(10));
        sim.on(In::EpochEnd(0)).unwrap();
        sim.broken(1, 0).unwrap();
        sim.admit(Some(1)).unwrap();
        sim.out.clear();
        for gen in [0, 2] {
            sim.ack(1, gen, 0, &[]).unwrap();
            sim.broken(1, gen).unwrap();
        }
        assert!(sim.out.is_empty(), "no loss, no action");
        assert_eq!(sim.c.acked_epoch[1], None, "no ack counted");
    }

    #[test]
    fn done_before_node_stats_is_refused() {
        let mut sim = Sim::new(2, 4, OnNodeLoss::Reassign, Duration::ZERO);
        sim.on(In::Finish).unwrap();
        let err = sim.frame(0, 0, FrameKind::Done, Bytes::new()).unwrap_err();
        match err {
            DeployError::NodeFailed { node: 0, reason } => {
                assert_eq!(reason, "Done before NodeStats");
            }
            other => panic!("expected NodeFailed, got {other:?}"),
        }
    }

    #[test]
    fn a_lost_nodes_staged_results_are_never_committed() {
        let mut sim = Sim::new(2, 4, OnNodeLoss::Reassign, Duration::ZERO);
        sim.on(In::EpochEnd(0)).unwrap();
        // Node 1 commits tag 1 with its checkpoint, then stages tag 2 and
        // dies before the ack that would commit it.
        sim.results(1, 0, 2, 1).unwrap();
        sim.ckpt(1, 0, 2).unwrap();
        sim.ack(1, 0, 0, &[2]).unwrap();
        sim.ack(0, 0, 0, &[]).unwrap();
        sim.on(In::EpochEnd(1)).unwrap();
        sim.results(1, 0, 2, 2).unwrap();
        sim.broken(1, 0).unwrap();
        assert_eq!(sim.c.owner(2), Some(0));
        // The adopter re-emits the window from checkpoint plus replay.
        sim.results(0, 0, 2, 3).unwrap();
        sim.ack(0, 0, 1, &[]).unwrap();
        sim.on(In::Finish).unwrap();
        sim.stats_and_done(0, 0).unwrap();
        let fin = sim.c.into_finish(vec![0, 0]).unwrap();
        assert_eq!(tags(&fin.results), [1, 3]);
    }

    #[test]
    fn liveness_fires_at_last_heard_plus_timeout_and_not_before() {
        let mut sim = Sim::new(2, 4, OnNodeLoss::Fail, Duration::ZERO);
        sim.at(0, In::EpochEnd(0)).unwrap();
        assert_eq!(sim.c.deadline(), Some(ms(500)), "the first heartbeat");
        sim.sent();
        sim.at(500, In::Tick).unwrap();
        assert_eq!(sim.sent(), [(0, FrameKind::Ping), (1, FrameKind::Ping)]);
        sim.now = ms(600);
        sim.frame(1, 0, FrameKind::Pong, Bytes::new()).unwrap();
        sim.now = ms(700);
        sim.ack(0, 0, 0, &[]).unwrap();
        sim.at(1_000, In::Tick).unwrap();
        sim.at(1_500, In::Tick).unwrap();
        assert_eq!(
            sim.c.deadline(),
            Some(ms(1_600)),
            "node 1 was last heard at 600"
        );
        sim.at(1_599, In::Tick).unwrap();
        let err = sim.at(1_600, In::Tick).unwrap_err();
        match err {
            DeployError::NodeFailed { node: 1, reason } => assert!(reason.contains("liveness")),
            other => panic!("expected NodeFailed, got {other:?}"),
        }
    }

    #[test]
    fn admission_times_out_with_the_registered_count() {
        let mut sim = Sim::admitting(2, 4, OnNodeLoss::Fail, Duration::ZERO);
        sim.now = ms(10);
        sim.admit(None).unwrap();
        assert_eq!(sim.c.deadline(), Some(ms(300)));
        sim.at(299, In::Tick).unwrap();
        let err = sim.at(300, In::Tick).unwrap_err();
        assert!(matches!(
            err,
            DeployError::NodeTimeout {
                registered: 1,
                expected: 2,
                ..
            }
        ));
    }

    /// A deterministic pseudo-random stream for the interleaving sweep.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = splitmix64(self.0);
            (self.0 % n as u64) as usize
        }
    }

    /// One node's frames for one epoch, in link order: its owned shards'
    /// `Results`, then either their `Ckpt` frames and a checkpointing ack
    /// (`Progress` with argument 1) or a plain ack (argument 0).
    fn epoch_frames(c: &Coordinator, node: usize, rng: &mut Rng) -> Vec<(FrameKind, u32)> {
        let owned: Vec<u32> = (0..6)
            .filter(|&s| c.owner(s as usize) == Some(node))
            .collect();
        let mut frames: Vec<_> = owned.iter().map(|&s| (FrameKind::Results, s)).collect();
        if rng.below(2) == 0 {
            frames.extend(owned.iter().map(|&s| (FrameKind::Ckpt, s)));
            frames.push((FrameKind::Progress, 1));
        } else {
            frames.push((FrameKind::Progress, 0));
        }
        frames
    }

    /// One seed of the interleaving sweep: three nodes on six shards run
    /// six epochs under `Reassign`, `Degrade`, or a reconnect window. Each
    /// node sends its owned shards' `Results` (unique tags), sometimes
    /// `Ckpt` frames plus a checkpointing ack, else a plain ack; the links
    /// interleave at random, and up to two nodes are lost at random points
    /// (a reconnecting node re-registers at a later random point, while the
    /// other links keep sending). Asserts that the barrier never settles
    /// before every live node acked, and that the committed results are
    /// exactly the tags no loss voided, each once. Returns the losses
    /// injected.
    fn interleaving(seed: u64) -> usize {
        let mut rng = Rng(seed);
        let (policy, grace) = [
            (OnNodeLoss::Reassign, Duration::ZERO),
            (OnNodeLoss::Degrade, Duration::ZERO),
            (OnNodeLoss::Fail, Duration::from_secs(10)),
        ][rng.below(3)];
        let mut sim = Sim::new(3, 6, policy, grace);
        let mut alive = [true; 3];
        let mut gens = [0u32; 3];
        // A lost node whose reconnect window is open.
        let mut window: Option<usize> = None;
        // Per node: tags sent per shard since that shard's last committed
        // checkpoint on that node.
        let mut staged: Vec<BTreeMap<u32, Vec<u64>>> = vec![BTreeMap::new(); 3];
        let mut expected = BTreeSet::new();
        let mut next_tag = 0u64;
        let mut losses = 0;
        for epoch in 0..6u64 {
            sim.on(In::EpochEnd(epoch)).unwrap();
            let mut acked = [false; 3];
            let mut queues: Vec<Vec<(FrameKind, u32)>> =
                (0..3).map(|n| epoch_frames(&sim.c, n, &mut rng)).collect();
            loop {
                let live: Vec<usize> = (0..3)
                    .filter(|&n| alive[n] && !queues[n].is_empty())
                    .collect();
                if let Some(lost) = window.filter(|_| live.is_empty() || rng.below(4) == 0) {
                    // The lost node re-registers and is re-seeded; it owes
                    // this epoch's frames again.
                    sim.admit(Some(lost as u32)).unwrap();
                    (window, alive[lost], acked[lost]) = (None, true, false);
                    gens[lost] += 1;
                    queues[lost] = epoch_frames(&sim.c, lost, &mut rng);
                    continue;
                }
                if live.is_empty() {
                    break;
                }
                let survivors = alive.iter().filter(|a| **a).count();
                if losses < 2 && window.is_none() && survivors > 1 && rng.below(12) == 0 {
                    // Acked or not: a loss can be detected after the ack.
                    let alive_now: Vec<usize> = (0..3).filter(|&n| alive[n]).collect();
                    let victim = alive_now[rng.below(alive_now.len())];
                    sim.broken(victim as u32, gens[victim]).unwrap();
                    alive[victim] = false;
                    queues[victim].clear();
                    losses += 1;
                    // Rows staged but not committed die with the node.
                    staged[victim].clear();
                    if grace > Duration::ZERO {
                        window = Some(victim);
                    }
                    continue;
                }
                let node = live[rng.below(live.len())];
                let (kind, arg) = queues[node].remove(0);
                let (n, gen) = (node as u32, gens[node]);
                match kind {
                    FrameKind::Results => {
                        sim.results(n, gen, arg, next_tag).unwrap();
                        staged[node].entry(arg).or_default().push(next_tag);
                        next_tag += 1;
                    }
                    FrameKind::Ckpt => sim.ckpt(n, gen, arg).unwrap(),
                    _ => {
                        let owned: Vec<u32> = (0..6)
                            .filter(|&s| sim.c.owner(s as usize) == Some(node))
                            .collect();
                        let ckpt = if arg == 1 { owned } else { Vec::new() };
                        sim.ack(n, gen, epoch, &ckpt).unwrap();
                        for s in &ckpt {
                            expected.extend(staged[node].remove(s).unwrap_or_default());
                        }
                        acked[node] = true;
                    }
                }
                let waiting = (0..3).any(|n| alive[n] && !acked[n]);
                assert!(
                    !(sim.c.settled() && waiting),
                    "seed {seed}: barrier {epoch} settled before every live node acked"
                );
            }
            assert!(
                sim.c.settled(),
                "seed {seed}: barrier {epoch} never settled"
            );
        }
        sim.on(In::Finish).unwrap();
        for node in (0..3).filter(|&n| alive[n]) {
            sim.stats_and_done(node as u32, gens[node]).unwrap();
            expected.extend(staged[node].values().flatten());
        }
        assert!(sim.c.settled(), "seed {seed}: collection never settled");
        let fin = sim.c.into_finish(vec![0; 3]).unwrap();
        let got = tags(&fin.results);
        assert_eq!(got, expected.into_iter().collect::<Vec<_>>(), "seed {seed}");
        losses
    }

    #[test]
    fn barriers_wait_for_every_live_ack_and_results_commit_once() {
        let losses: usize = (0..500).map(interleaving).sum();
        assert!(losses > 250, "the sweep loses nodes ({losses} losses)");
    }
}
