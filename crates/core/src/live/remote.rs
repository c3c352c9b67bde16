//! Coordinator side of the TCP stream-processor tier.
//!
//! [`RemoteCluster`] replaces the in-process SP node threads of
//! [`super::session::LiveSession`] when a deployment selects
//! [`TransportKind::Tcp`](crate::deploy::TransportKind): it listens on the
//! configured endpoint, admits `jarvis-node` registrations (shared-token
//! auth, versioned handshake), pushes each node its [`NodeSpec`] slice, and
//! then carries the exact same `NetPayload` shard traffic the channel
//! transport carries — untouched `netwire` envelopes inside
//! [`FrameKind::Shard`] frames — so digests are bit-identical to the
//! in-process run. Per-link socket byte counters (TX from the writer
//! thread, RX from the frame reader) feed `RunReport.node_stats` with
//! *actual* wire traffic rather than modelled sizes.
//!
//! # Fault tolerance
//!
//! The coordinator is also the failure detector and the recovery driver:
//!
//! - **Detection.** Every epoch boundary blocks until each live node acks
//!   the epoch (a `Progress` frame). While waiting, the coordinator sends
//!   `Ping` heartbeats and expects traffic back within the configured
//!   liveness deadline; a silent node, a broken writer, or a reader error
//!   all surface as a typed loss instead of a wedged run.
//! - **Epoch-aligned checkpoints.** Nodes snapshot owned-shard open-window
//!   state every `checkpoint_interval` epochs as `Ckpt` frames (schema-free
//!   `netwire` state envelopes the coordinator stores verbatim) committed
//!   by the ack riding the next `Progress`. Commit truncates per-shard
//!   replay buffers to post-checkpoint traffic, bounding recovery cost.
//! - **Results, exactly once.** A node sends a window's rows as `Results`
//!   frames at the barrier that closes it. The coordinator stages them per
//!   node and commits a shard's staged rows on the ack that commits that
//!   shard's checkpoint (and truncates its replay), or at `Done` when no
//!   checkpoint comes. A loss voids the lost node's staged rows: they are
//!   exactly the rows the recovered shard re-emits from checkpoint plus
//!   replay, so every row is committed once with no dedupe state.
//! - **Recovery.** On loss the coordinator first holds a reconnect window
//!   (`reconnect_grace`): the same node may re-register (same token, same
//!   id) and is re-seeded with its checkpoint plus replayed traffic. If the
//!   window lapses the [`OnNodeLoss`] policy applies — `Reassign` ships the
//!   lost shards to survivors via [`AdoptMsg`], `Degrade` drops them and
//!   reports per-shard completeness, `Fail` surfaces the pre-fault error.
//!
//! Recovery re-ships *full* checkpoint snapshots plus every buffered
//! post-checkpoint payload in the original per-shard order, and the merged
//! result digest is order-independent, so a recovered run is bit-identical
//! to a fault-free one.
//!
//! Persistent dictionaries version-sync with recovery: live shard frames
//! ship dictionary *delta* pages against per-link [`DictVersions`], while
//! checkpoint and replay bodies stay self-contained (full pages), so they
//! decode on any executor regardless of its mirror state. A reconnect
//! resets the link's versions (the rebuilt engine has empty mirrors); a
//! reassignment needs no reset, because the survivor keeps both its mirrors
//! and its link's version state.
//!
//! # Control-plane scheduling
//!
//! Every coordinator wait is event-driven rather than polled. A dedicated
//! blocking [`Acceptor`] thread owns the listener and feeds accepted
//! connections into a channel that admission and the reconnect window
//! drain with deadline-bounded receives; the ack and finish loops sleep on
//! the reader-event channel bounded by the earliest armed
//! [`DeadlineQueue`] deadline (heartbeat cadence, a silent node's liveness
//! deadline, the overall node timeout). The coordinator thread wakes
//! exactly when there is a frame to handle or a timer to honour — no
//! fixed-interval `sleep` loops.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use streamkit::batch::{Batch, DictVersions};
use streamkit::schema::SchemaRef;
use streamkit::shard::node_of_shard;

use crate::deploy::remote::{
    from_body, to_body, Admit, AdoptMsg, AdoptShard, CheckpointAck, NodeSpec, NodeStatsMsg,
    Progress, Register, Reject, RemoteWorkload, ShardCounters, MAX_REGISTER_LEN,
};
use crate::deploy::{DeployError, DeploymentSpec, FaultIncident, OnNodeLoss};
use crate::engine::netwire::{
    decode_shard_payload, encode_shard_payload, encode_shard_payload_with, link_dependent,
    peek_envelope,
};
use crate::engine::transport::{encode_frame, FrameKind, FrameReader, Link, TransportError};
use crate::engine::NetPayload;
use crate::planner::RuleConfig;
use crate::rt::DeadlineQueue;

/// Read deadline on a connection between accept and the end of its
/// handshake (admission and reconnect alike).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Cadence of the registered-but-dead probe during admission. Accept
/// latency is event-driven (the acceptor thread blocks in `accept`); this
/// timer only bounds how long an admitted node's death can go unnoticed
/// before the fleet is complete.
const ADMIT_PROBE: Duration = Duration::from_millis(25);

/// Accepts-channel depth: connections the acceptor thread has taken off
/// the listener but nobody has examined yet. Overflow drops the
/// connection, like an overflowing OS accept backlog would.
const ACCEPT_QUEUE: usize = 64;

/// Events-channel depth (progress frames are tiny; results frames are
/// chunked node-side).
const EVENT_QUEUE: usize = 4096;

/// Heartbeat cadence while blocked on epoch acks.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(500);

/// Frame bodies shorter than this are released by the reader thread that
/// allocated them (see [`SmallBodies`]).
const SMALL_BODY: usize = 4096;

/// Small bodies a reader keeps its own handle on at a time — control
/// frames arrive a few per epoch, so this spans many epochs.
const SMALL_BODIES_KEPT: usize = 64;

/// One admitted node's connection state between handshake and link spawn.
struct AdmittedNode {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    /// Handshake bytes written before the writer thread took over.
    handshake_tx: u64,
}

/// A frame (or failure) surfaced by a per-node reader thread.
///
/// `gen` is the connection generation the frame arrived on: a reconnect
/// bumps the node's generation, so stale events from a replaced reader
/// (e.g. the old connection's `Broken`) are dropped instead of killing the
/// fresh link.
enum NodeEvent {
    Frame {
        node: u32,
        gen: u32,
        kind: FrameKind,
        body: Bytes,
    },
    Broken {
        node: u32,
        gen: u32,
        error: String,
    },
}

/// A reader's own handles on the last small frame bodies it read, so the
/// final reference to each is dropped on the thread that allocated it.
///
/// A control frame's body (`Progress`, `Pong`, `NodeStats`) is allocated
/// by the reader and consumed by the coordinator thread a moment later.
/// Freed over there, the chunk parks in that thread's allocator cache while
/// still belonging to the reader's heap — the heap that also holds the
/// checkpoint bodies this reader allocated — and a heap with a parked
/// chunk near its top is not handed back to the OS when the checkpoint
/// bodies go: whether the coordinator's recovery state (two checkpoint
/// generations, tens of MB) stayed resident while `try_finish` built its
/// rows was a coin flip per run. Bodies of [`SMALL_BODY`] and up bypass
/// that cache and need no handle.
struct SmallBodies(VecDeque<Bytes>);

impl SmallBodies {
    fn keep(&mut self, body: &Bytes) {
        if body.len() >= SMALL_BODY {
            return;
        }
        if self.0.len() == SMALL_BODIES_KEPT {
            self.0.pop_front();
        }
        self.0.push_back(body.clone());
    }
}

/// Spawns the per-connection reader thread feeding the event channel.
fn spawn_reader(
    mut reader: FrameReader<TcpStream>,
    node: u32,
    gen: u32,
    tx: Sender<NodeEvent>,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let mut small = SmallBodies(VecDeque::with_capacity(SMALL_BODIES_KEPT));
        loop {
            match reader.read_frame() {
                Ok((kind, body)) => {
                    small.keep(&body);
                    let done = kind == FrameKind::Done;
                    if tx
                        .send(NodeEvent::Frame {
                            node,
                            gen,
                            kind,
                            body,
                        })
                        .is_err()
                    {
                        return;
                    }
                    if done {
                        return;
                    }
                }
                Err(e) => {
                    let _ = tx.send(NodeEvent::Broken {
                        node,
                        gen,
                        error: e.to_string(),
                    });
                    return;
                }
            }
        }
    })
}

/// Deadline keys driving the coordinator's event-driven waits: the ack
/// and finish loops block on the events channel bounded by the earliest
/// armed key in a [`DeadlineQueue`] instead of polling a fixed interval.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum WakeKey {
    /// Next `Ping` heartbeat; doubles as the broken-writer scan cadence.
    Heartbeat,
    /// Liveness deadline for one not-yet-acked node.
    Liveness(u32),
}

/// The blocking acceptor thread: owns the listener and feeds every
/// accepted connection into the accepts channel, which admission and the
/// reconnect window drain with deadline-bounded receives. Dropping the
/// handle stops the thread by arming the flag and self-dialing the listen
/// endpoint to unblock `accept`.
struct Acceptor {
    handle: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Acceptor {
    fn spawn(listener: TcpListener, addr: SocketAddr, tx: Sender<TcpStream>) -> Acceptor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if flag.load(Ordering::Acquire) {
                        return;
                    }
                    match tx.try_send(stream) {
                        // A full queue sheds the connection, exactly as an
                        // overflowing OS accept backlog would; never block
                        // here, so the stop dial always gets through.
                        Ok(()) | Err(TrySendError::Full(_)) => {}
                        Err(TrySendError::Disconnected(_)) => return,
                    }
                }
                Err(_) => {
                    if flag.load(Ordering::Acquire) {
                        return;
                    }
                    // Transient accept failure (aborted handshake, fd
                    // pressure): back off briefly instead of spinning.
                    thread::sleep(Duration::from_millis(20));
                }
            }
        });
        Acceptor {
            handle: Some(handle),
            stop,
            addr,
        }
    }

    /// Dial target for the stop wake-up: an unspecified bind address is
    /// reachable via loopback.
    fn dial_addr(&self) -> SocketAddr {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
        }
        addr
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            // Unblock `accept` so the thread observes the flag; a failed
            // dial means the listener already died and accept errored out.
            let _ = TcpStream::connect(self.dial_addr());
            let _ = handle.join();
        }
    }
}

/// Everything the session needs from the remote tier after `finish`.
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

/// The coordinator's handle on a fleet of admitted `jarvis-node` executors.
pub(crate) struct RemoteCluster {
    /// Per-node writer links (`None` once retired by a loss).
    links: Vec<Option<Link>>,
    /// Socket clones used to force-unblock a retired link's reader.
    streams: Vec<Option<TcpStream>>,
    readers: Vec<Option<JoinHandle<()>>>,
    /// Connection generation per node, bumped on reconnect.
    gens: Vec<u32>,
    /// RX byte counters, shared with the (current) reader and carried
    /// across reconnects.
    rx_counters: Vec<Arc<AtomicU64>>,
    /// Handshake bytes written synchronously, summed across reconnects.
    handshake_tx: Vec<u64>,
    /// TX bytes banked from retired links.
    retired_tx: Vec<u64>,
    events: Mutex<Receiver<NodeEvent>>,
    /// Kept so reconnected readers can feed the same channel.
    ev_tx: Sender<NodeEvent>,
    /// Connections the acceptor thread took off the listener; the
    /// reconnect window drains it with deadline-bounded receives.
    /// (Locked only for `Sync`: the coordinator thread is the one user.)
    accepts: Mutex<Receiver<TcpStream>>,
    /// Blocking acceptor thread owning the listener; held for its drop
    /// guard only (stops and joins the thread, releasing the port).
    _acceptor: Acceptor,
    /// Epochs announced via `epoch_end`.
    epochs_sent: u64,
    /// Highest epoch acked per node (max across duplicates — recovery
    /// re-sends `EpochEnd`, so duplicate acks are expected).
    acked_epoch: Vec<Option<u64>>,
    alive: Vec<bool>,
    /// Last traffic seen per node (liveness clock).
    last_heard: Vec<Instant>,
    /// Current owner per ring shard; `None` once degraded away.
    routes: Vec<Option<usize>>,
    /// Post-checkpoint shard payloads, per shard, epoch-stamped, each
    /// source's in its ship order (locked: the epoch's source tasks append
    /// concurrently through `&self`). Stored **self-contained** (full
    /// dictionary pages, no link state): recovery re-ships these bodies
    /// verbatim to executors whose mirror state is unknown — fresh after a
    /// reconnect, partial on an adopter.
    replay: Vec<Mutex<Vec<(u64, Bytes)>>>,
    /// Sender-side persistent-dictionary versions per node link (locked:
    /// the epoch's source tasks encode concurrently through `&self`): the
    /// highest version of each dictionary already shipped over the link, so
    /// live shard frames carry delta pages only. Reset when a node
    /// reconnects — the rebuilt executor starts with empty mirrors, so the
    /// next frame re-seeds it with full pages.
    dict_sync: Vec<Mutex<DictVersions>>,
    /// Whether replay buffering is on (any recovery path configured).
    buffering: bool,
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
    /// True once `finish` started: a reconnector must also re-finish, and
    /// reassignment is no longer possible (adopters may have exited).
    finishing: bool,
    on_node_loss: OnNodeLoss,
    liveness_timeout: Duration,
    reconnect_grace: Duration,
    node_timeout: Duration,
    checkpoint_interval: u64,
    auth_token: String,
    workload: RemoteWorkload,
    rules: RuleConfig,
    sources: u32,
    final_schema: SchemaRef,
}

/// Encodes `payload` for its owner's link and, when `buffering`, for the
/// replay buffer. The link form is encoded against the link's
/// persistent-dictionary versions (delta pages only); the replay form is
/// self-contained, because recovery re-ships it verbatim to an executor
/// whose mirrors it cannot assume. The two differ only when a
/// persistent-dictionary column is present — every `ShardState` and every
/// dictionary-free `ShardBatch` is encoded once and the bytes are shared.
fn link_and_replay_forms(
    payload: &NetPayload,
    buffering: bool,
    dict_sync: &Mutex<DictVersions>,
) -> (Bytes, Option<Bytes>) {
    if link_dependent(payload) {
        let replay = buffering.then(|| encode_shard_payload(payload));
        let body = encode_shard_payload_with(payload, &mut dict_sync.lock());
        (body, replay)
    } else {
        let body = encode_shard_payload(payload);
        let replay = buffering.then(|| body.clone());
        (body, replay)
    }
}

impl RemoteCluster {
    /// Binds the listen endpoint, admits `n_nodes` registrations, pushes
    /// each node its spec slice, and waits for every `Ready`.
    ///
    /// Connections that never speak the protocol (port scanners, garbage)
    /// are dropped and admission continues; protocol-level failures — wrong
    /// token, version mismatch, unusable node id — abort the deployment
    /// with a typed error, and a registered node whose connection dies
    /// before the fleet is complete aborts with `NodeLost`.
    pub(crate) fn listen(
        spec: &DeploymentSpec,
        n_shards: usize,
        n_nodes: usize,
        final_schema: SchemaRef,
    ) -> Result<RemoteCluster, DeployError> {
        let addr = spec
            .listen_addr
            .expect("validated TCP spec carries a listen endpoint");
        let workload = spec
            .workload
            .remote_workload()
            .expect("validated TCP spec carries a remotable workload");
        let listener = TcpListener::bind(addr).map_err(|e| DeployError::InvalidEndpoint {
            got: format!("{addr}: bind failed: {e}"),
        })?;
        let local = listener
            .local_addr()
            .map_err(|e| DeployError::InvalidEndpoint {
                got: format!("{addr}: {e}"),
            })?;
        let (accept_tx, accepts) = bounded::<TcpStream>(ACCEPT_QUEUE);
        let acceptor = Acceptor::spawn(listener, local, accept_tx);

        let deadline = Instant::now() + spec.node_timeout;
        let mut admitted: Vec<Option<AdmittedNode>> = (0..n_nodes).map(|_| None).collect();
        let mut registered = 0u32;
        let mut probe: DeadlineQueue<()> = DeadlineQueue::new();
        probe.arm((), Instant::now() + ADMIT_PROBE);
        while (registered as usize) < n_nodes {
            let now = Instant::now();
            if now >= deadline {
                return Err(DeployError::NodeTimeout {
                    waited_ms: spec.node_timeout.as_millis() as u64,
                    registered,
                    expected: n_nodes as u32,
                });
            }
            // A node that registered and then died leaves a slice nobody
            // else can claim — fail admission eagerly instead of timing
            // out. The probe timer bounds detection; accepts themselves
            // arrive event-driven.
            if !probe.due(now).is_empty() {
                for (id, slot) in admitted.iter().enumerate() {
                    if let Some(node) = slot {
                        if let Some(reason) = peer_disconnected(&node.stream) {
                            return Err(DeployError::NodeLost {
                                node: id as u32,
                                reason,
                            });
                        }
                    }
                }
                probe.arm((), now + ADMIT_PROBE);
            }
            let wake = probe
                .next_deadline()
                .expect("probe timer is always re-armed")
                .min(deadline);
            let stream = match accepts.recv_deadline(wake) {
                Ok(stream) => stream,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(DeployError::HandshakeFailed {
                        peer: addr.to_string(),
                        reason: "acceptor thread died".to_string(),
                    })
                }
            };
            let peer = stream
                .peer_addr()
                .map_or_else(|_| "unknown peer".to_string(), |p| p.to_string());
            if admit(
                stream,
                &peer,
                spec,
                &workload,
                n_shards,
                n_nodes,
                &mut admitted,
            )? {
                registered += 1;
            }
        }

        // Every slot is filled: spawn the writer links and reader threads
        // (one blocking thread each way per link; links scale with nodes,
        // not sources). The chaos plan (if any) arms the original links
        // only; reconnected links are clean — a planned fault fires once.
        let (ev_tx, events) = bounded::<NodeEvent>(EVENT_QUEUE);
        let mut links = Vec::with_capacity(n_nodes);
        let mut streams = Vec::with_capacity(n_nodes);
        let mut readers = Vec::with_capacity(n_nodes);
        let mut rx_counters = Vec::with_capacity(n_nodes);
        let mut handshake_tx = Vec::with_capacity(n_nodes);
        for (id, slot) in admitted.into_iter().enumerate() {
            let node = slot.expect("all slots admitted");
            rx_counters.push(node.reader.counter());
            handshake_tx.push(node.handshake_tx);
            let shutdown = node
                .stream
                .try_clone()
                .map_err(|e| DeployError::HandshakeFailed {
                    peer: addr.to_string(),
                    reason: format!("clone admitted stream: {e}"),
                })?;
            streams.push(Some(shutdown));
            let faults = spec
                .fault_plan
                .as_ref()
                .map(|p| p.faults_for(id as u32))
                .unwrap_or_default();
            let seed = spec.fault_plan.as_ref().map_or(0, |p| p.seed);
            links.push(Some(Link::spawn_with_faults(node.stream, faults, seed)));
            readers.push(Some(spawn_reader(node.reader, id as u32, 0, ev_tx.clone())));
        }

        let buffering =
            !matches!(spec.on_node_loss, OnNodeLoss::Fail) || spec.reconnect_grace > Duration::ZERO;
        Ok(RemoteCluster {
            links,
            streams,
            readers,
            gens: vec![0; n_nodes],
            rx_counters,
            handshake_tx,
            retired_tx: vec![0; n_nodes],
            events: Mutex::new(events),
            ev_tx,
            accepts: Mutex::new(accepts),
            _acceptor: acceptor,
            epochs_sent: 0,
            acked_epoch: vec![None; n_nodes],
            alive: vec![true; n_nodes],
            last_heard: vec![Instant::now(); n_nodes],
            routes: (0..n_shards)
                .map(|s| Some(node_of_shard(s, n_shards, n_nodes)))
                .collect(),
            replay: (0..n_shards).map(|_| Mutex::new(Vec::new())).collect(),
            dict_sync: (0..n_nodes)
                .map(|_| Mutex::new(DictVersions::new()))
                .collect(),
            buffering,
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
            finishing: false,
            on_node_loss: spec.on_node_loss,
            liveness_timeout: spec.liveness_timeout,
            reconnect_grace: spec.reconnect_grace,
            node_timeout: spec.node_timeout,
            checkpoint_interval: spec.checkpoint_interval,
            auth_token: spec.auth_token.clone(),
            workload,
            rules: spec.rules.clone(),
            sources: spec.sources,
            final_schema,
        })
    }

    /// Ships one shard payload to the shard's current owner, buffering it
    /// for replay when recovery is enabled ([`link_and_replay_forms`]: one
    /// encode shared by both unless the payload carries a persistent
    /// dictionary). Returns the framed wire size, or `None` when the shard
    /// has been degraded away (the payload is dropped, by policy).
    ///
    /// **Concurrent callers.** With `rt_workers > 1` the source tasks of an
    /// epoch enter this at once, and the three steps — replay append, encode
    /// under the link's `dict_sync` lock, enqueue after releasing it — are
    /// not one critical section. They need not be:
    ///
    /// * what the receiver relies on is per-(source, shard) frame order (it
    ///   keeps one pipeline per source per shard), and all of a source's
    ///   calls come from its one task, in order, so its frames reach the
    ///   link's FIFO queue in order whatever other sources interleave;
    /// * a dictionary delta must extend the receiver's mirror exactly, i.e.
    ///   frames carrying one dictionary must be sent in the order they were
    ///   encoded — and a persistent dictionary has one owner (a generator or
    ///   an operator instance of one source), so no two tasks ever advance
    ///   the same `DictVersions` entry; the lock only keeps the map itself
    ///   consistent;
    /// * recovery replays a shard's buffer front to back, which again needs
    ///   ship order per source only, and the bodies are self-contained;
    /// * the routing table, the links and the reset of a reconnected link's
    ///   versions change under `&mut self` at the epoch barrier, when every
    ///   source task has been joined.
    pub(crate) fn route_payload(
        &self,
        shard: usize,
        epoch: u64,
        payload: &NetPayload,
    ) -> Option<u64> {
        let owner = self.routes[shard]?;
        let (body, replay) = link_and_replay_forms(payload, self.buffering, &self.dict_sync[owner]);
        if let Some(replay) = replay {
            self.replay[shard].lock().push((epoch, replay));
        }
        let link = self.links[owner].as_ref()?;
        Some(link.send(FrameKind::Shard, &body))
    }

    /// Announces an epoch boundary to every live node, then blocks until
    /// each has acked it — detecting, and recovering from, node losses
    /// while it waits.
    pub(crate) fn epoch_end(&mut self, epoch: u64) -> Result<(), DeployError> {
        for (i, link) in self.links.iter().enumerate() {
            if self.alive[i] {
                if let Some(link) = link {
                    link.send(FrameKind::EpochEnd, &epoch.to_le_bytes());
                }
            }
        }
        self.epochs_sent += 1;
        // The liveness clock starts at the boundary: dispatch time (which
        // produces no return traffic) never counts against a node.
        self.reset_liveness();
        self.await_acks(epoch)
    }

    /// Blocks until every live node acked `epoch`, sending heartbeats,
    /// surfacing writer/reader failures, and enforcing the liveness
    /// deadline on silent nodes.
    ///
    /// Event-driven: sleeps on the events channel bounded by the earliest
    /// armed [`DeadlineQueue`] key — the next heartbeat or a pending
    /// node's liveness deadline — instead of polling a fixed interval.
    fn await_acks(&mut self, epoch: u64) -> Result<(), DeployError> {
        let mut timers: DeadlineQueue<WakeKey> = DeadlineQueue::new();
        let now = Instant::now();
        timers.arm(WakeKey::Heartbeat, now + HEARTBEAT_EVERY);
        for i in 0..self.alive.len() {
            if self.pending_ack(i, epoch) {
                timers.arm(
                    WakeKey::Liveness(i as u32),
                    self.last_heard[i] + self.liveness_timeout,
                );
            }
        }
        loop {
            for (node, reason) in self.broken_links() {
                self.handle_loss(node, epoch, &reason)?;
            }
            if self.acked_all(epoch) {
                return Ok(());
            }
            let now = Instant::now();
            for key in timers.due(now) {
                match key {
                    WakeKey::Heartbeat => {
                        for (i, link) in self.links.iter().enumerate() {
                            if self.alive[i] {
                                if let Some(link) = link {
                                    link.send(FrameKind::Ping, &[]);
                                    self.heartbeats_sent += 1;
                                }
                            }
                        }
                        timers.arm(WakeKey::Heartbeat, now + HEARTBEAT_EVERY);
                    }
                    WakeKey::Liveness(node) => {
                        let i = node as usize;
                        if !self.pending_ack(i, epoch) {
                            // Acked, lost, or degraded meanwhile: stale
                            // timer, drop it.
                            continue;
                        }
                        if now > self.last_heard[i] + self.liveness_timeout {
                            let reason = format!(
                                "no epoch ack within the liveness deadline ({} ms)",
                                self.liveness_timeout.as_millis()
                            );
                            self.handle_loss(node, epoch, &reason)?;
                        }
                        // Re-arm when the node still owes an ack: traffic
                        // moved the deadline, or a reconnect reset the
                        // clock and the node must ack again.
                        if self.pending_ack(i, epoch) {
                            timers.arm(
                                WakeKey::Liveness(node),
                                self.last_heard[i] + self.liveness_timeout,
                            );
                        }
                    }
                }
            }
            if self.acked_all(epoch) {
                return Ok(());
            }
            let wake = timers
                .next_deadline()
                .expect("the heartbeat timer stays armed");
            let got = self.events.lock().recv_deadline(wake);
            // On timeout/disconnect, loop around to fire due timers
            // (`self.ev_tx` keeps the channel open, so only timeout occurs).
            if let Ok(ev) = got {
                self.on_midrun_event(ev, epoch)?;
            }
        }
    }

    /// True while `node` is alive and still owes an ack for `epoch`.
    fn pending_ack(&self, i: usize, epoch: u64) -> bool {
        self.alive[i] && self.acked_epoch[i].is_none_or(|a| a < epoch)
    }

    /// True when every live node has acked `epoch` (vacuously true when
    /// no node is left alive — a fully degraded run still completes).
    fn acked_all(&self, epoch: u64) -> bool {
        self.alive
            .iter()
            .zip(&self.acked_epoch)
            .all(|(alive, acked)| !alive || acked.is_some_and(|a| a >= epoch))
    }

    /// Live links whose writer thread hit a transport error.
    fn broken_links(&self) -> Vec<(u32, String)> {
        self.links
            .iter()
            .enumerate()
            .filter_map(|(i, link)| {
                let link = link.as_ref()?;
                if self.alive[i] && link.is_broken() {
                    let reason = link
                        .error()
                        .map_or_else(|| "writer failed".to_string(), |e| e.to_string());
                    Some((i as u32, reason))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Restarts every live node's liveness clock (after a boundary or a
    /// recovery stall, so time spent elsewhere is not charged to them).
    fn reset_liveness(&mut self) {
        let now = Instant::now();
        for (i, heard) in self.last_heard.iter_mut().enumerate() {
            if self.alive[i] {
                *heard = now;
            }
        }
    }

    /// Processes one reader event between epochs. Only `Progress`, `Pong`,
    /// `Ckpt` and `Results` frames are legal here; anything else is a node
    /// failure.
    fn on_midrun_event(&mut self, ev: NodeEvent, epoch: u64) -> Result<(), DeployError> {
        match ev {
            NodeEvent::Frame {
                node,
                gen,
                kind,
                body,
            } => {
                let i = node as usize;
                if gen != self.gens[i] || !self.alive[i] {
                    return Ok(());
                }
                self.last_heard[i] = Instant::now();
                match kind {
                    FrameKind::Progress => self.on_progress(node, &body, epoch),
                    FrameKind::Pong => Ok(()),
                    FrameKind::Ckpt => {
                        self.staged_ckpt[i].push(body);
                        Ok(())
                    }
                    FrameKind::Results => match self.stage_results(i, body) {
                        Ok(()) => Ok(()),
                        Err(e) => self.handle_loss(node, epoch, &e),
                    },
                    other => self.handle_loss(
                        node,
                        epoch,
                        &format!("unexpected {other:?} frame mid-run"),
                    ),
                }
            }
            NodeEvent::Broken { node, gen, error } => {
                let i = node as usize;
                if gen != self.gens[i] || !self.alive[i] {
                    return Ok(());
                }
                self.handle_loss(node, epoch, &error)
            }
        }
    }

    /// Records a `Progress` ack (idempotent under recovery's re-sent
    /// boundaries) and commits any checkpoint riding on it.
    fn on_progress(&mut self, node: u32, body: &[u8], epoch: u64) -> Result<(), DeployError> {
        let i = node as usize;
        let p: Progress = match from_body(body) {
            Ok(p) => p,
            Err(e) => return self.handle_loss(node, epoch, &e),
        };
        if p.node_id != node {
            return self.handle_loss(node, epoch, &format!("progress claims node {}", p.node_id));
        }
        self.acked_epoch[i] = Some(self.acked_epoch[i].map_or(p.epoch, |a| a.max(p.epoch)));
        if let Some(ack) = p.checkpoint {
            if let Err(e) = self.commit_checkpoint(i, &ack) {
                return self.handle_loss(node, epoch, &e);
            }
        }
        Ok(())
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
    /// replay buffers to post-checkpoint traffic, and commits the acked
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
        for c in &ack.shards {
            let stale: Vec<(u32, u32, u32)> = self
                .ckpt_state
                .range((c.shard, 0, 0)..=(c.shard, u32::MAX, u32::MAX))
                .map(|(k, _)| *k)
                .collect();
            for k in stale {
                self.ckpt_state.remove(&k);
            }
        }
        self.ckpt_state.extend(fresh);
        for c in &ack.shards {
            self.replay[c.shard as usize]
                .lock()
                .retain(|(e, _)| *e > ack.epoch);
            self.ckpt_counters.insert(c.shard, c.clone());
        }
        self.commit_results(node, |shard| ack.shards.iter().any(|c| c.shard == shard));
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

    /// Handles a detected node loss: retire the link, hold the reconnect
    /// window, then apply the [`OnNodeLoss`] policy. Idempotent per node.
    fn handle_loss(&mut self, node: u32, epoch: u64, reason: &str) -> Result<(), DeployError> {
        let i = node as usize;
        if !self.alive[i] {
            return Ok(());
        }
        self.alive[i] = false;
        // Uncommitted frames die with the node: the recovered shards
        // re-emit exactly these rows from checkpoint plus replay.
        self.staged_ckpt[i].clear();
        self.staged_results[i].clear();
        self.retire_link(i);
        let lost: Vec<u32> = (0..self.routes.len())
            .filter(|&s| self.routes[s] == Some(i))
            .map(|s| s as u32)
            .collect();

        if self.reconnect_grace > Duration::ZERO && self.await_reconnect(i) {
            let shipped = self.restore_shards(i, &lost, epoch);
            self.replay_bytes += shipped;
            self.incidents.push(FaultIncident {
                node,
                epoch,
                reason: reason.to_string(),
                action: "reconnected".to_string(),
                replay_bytes: shipped,
            });
            self.reset_liveness();
            return Ok(());
        }

        match self.on_node_loss {
            OnNodeLoss::Fail => {
                self.incidents.push(FaultIncident {
                    node,
                    epoch,
                    reason: reason.to_string(),
                    action: "failed".to_string(),
                    replay_bytes: 0,
                });
                Err(DeployError::NodeFailed {
                    node,
                    reason: reason.to_string(),
                })
            }
            OnNodeLoss::Reassign => {
                if self.finishing {
                    return Err(DeployError::NodeFailed {
                        node,
                        reason: format!(
                            "{reason} (lost during result collection; \
                             reassignment needs a running epoch loop)"
                        ),
                    });
                }
                let survivors: Vec<usize> =
                    (0..self.links.len()).filter(|&j| self.alive[j]).collect();
                if survivors.is_empty() {
                    return Err(DeployError::NodeFailed {
                        node,
                        reason: format!("{reason} (no surviving node to reassign to)"),
                    });
                }
                // Spread the lost slice over survivors with the same ring
                // function that placed it, so re-loss stays deterministic.
                let mut groups: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
                for &s in &lost {
                    let t =
                        survivors[node_of_shard(s as usize, self.routes.len(), survivors.len())];
                    groups.entry(t).or_default().push(s);
                }
                let mut shipped = 0u64;
                for (target, shards) in groups {
                    shipped += self.restore_shards(target, &shards, epoch);
                }
                self.replay_bytes += shipped;
                self.incidents.push(FaultIncident {
                    node,
                    epoch,
                    reason: reason.to_string(),
                    action: "reassigned".to_string(),
                    replay_bytes: shipped,
                });
                self.reset_liveness();
                Ok(())
            }
            OnNodeLoss::Degrade => {
                let covered = self.acked_epoch[i].map_or(0, |a| a + 1);
                for &s in &lost {
                    self.routes[s as usize] = None;
                    self.degraded_covered.insert(s, covered);
                    self.replay[s as usize].lock().clear();
                    self.degraded_from[i].push(s);
                }
                self.incidents.push(FaultIncident {
                    node,
                    epoch,
                    reason: reason.to_string(),
                    action: "degraded".to_string(),
                    replay_bytes: 0,
                });
                self.reset_liveness();
                Ok(())
            }
        }
    }

    /// Tears down a lost node's connection: force-shutdown the socket (so
    /// a blocked reader/writer unblocks), close the link banking its TX
    /// bytes, and detach the reader thread (it exits on its own; `finish`
    /// joins the readers of nodes that said `Done` instead).
    fn retire_link(&mut self, i: usize) {
        if let Some(stream) = self.streams[i].take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(mut link) = self.links[i].take() {
            link.close();
            self.retired_tx[i] += link.bytes_sent();
        }
        drop(self.readers[i].take());
    }

    /// Holds the reconnect window for a lost node: drain the acceptor's
    /// connection queue until the grace deadline, admitting only a
    /// `Register` with the shared token and the lost node's id. Returns
    /// true on success. Blocks on the accepts channel bounded by the
    /// grace deadline — no accept polling.
    fn await_reconnect(&mut self, node: usize) -> bool {
        let deadline = Instant::now() + self.reconnect_grace;
        loop {
            let stream = match self.accepts.lock().recv_deadline(deadline) {
                Ok(stream) => stream,
                // Grace lapsed (or the acceptor died): no reconnect.
                Err(_) => return false,
            };
            if self.readmit(stream, node) {
                return true;
            }
        }
    }

    /// Runs the reconnect handshake on one accepted connection. Anything
    /// that is not the lost node re-registering is rejected or dropped and
    /// the window keeps polling.
    fn readmit(&mut self, stream: TcpStream, node: usize) -> bool {
        if stream.set_nonblocking(false).is_err()
            || stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err()
        {
            return false;
        }
        let _ = stream.set_nodelay(true);
        let Ok(reader_stream) = stream.try_clone() else {
            return false;
        };
        let Ok(shutdown) = stream.try_clone() else {
            return false;
        };
        let mut reader =
            FrameReader::with_counter(reader_stream, Arc::clone(&self.rx_counters[node]));
        let Ok((kind, body)) = reader.read_frame_within(MAX_REGISTER_LEN) else {
            return false;
        };
        if kind != FrameKind::Register {
            return false;
        }
        let Ok(reg) = from_body::<Register>(&body) else {
            return false;
        };
        if reg.token != self.auth_token || reg.node_id != Some(node as u32) {
            let _ = write_frame(
                &stream,
                FrameKind::Reject,
                &to_body(&Reject {
                    reason: format!("reconnect window is for node {node} only"),
                }),
            );
            return false;
        }
        let mut tx = 0u64;
        let Ok(sent) = write_frame(
            &stream,
            FrameKind::Admit,
            &to_body(&Admit {
                node_id: node as u32,
            }),
        ) else {
            return false;
        };
        tx += sent;
        let Ok(sent) = write_frame(
            &stream,
            FrameKind::Spec,
            &to_body(&self.node_spec(node as u32)),
        ) else {
            return false;
        };
        tx += sent;
        if !matches!(reader.read_frame(), Ok((FrameKind::Ready, _))) {
            return false;
        }
        if stream.set_read_timeout(None).is_err() {
            return false;
        }
        self.handshake_tx[node] += tx;
        self.gens[node] += 1;
        let gen = self.gens[node];
        // The reconnected executor rebuilt its engine — its dictionary
        // mirrors are empty. Resetting the link's versions makes the next
        // live frame re-seed them with full pages (replayed checkpoint
        // traffic is self-contained and needs no mirror state).
        self.dict_sync[node].lock().clear();
        self.streams[node] = Some(shutdown);
        self.links[node] = Some(Link::spawn(stream));
        self.readers[node] = Some(spawn_reader(reader, node as u32, gen, self.ev_tx.clone()));
        self.alive[node] = true;
        self.acked_epoch[node] = None;
        self.last_heard[node] = Instant::now();
        true
    }

    /// The spec slice pushed to a (re)admitted node.
    fn node_spec(&self, node_id: u32) -> NodeSpec {
        NodeSpec {
            node_id,
            n_nodes: self.links.len() as u32,
            n_shards: self.routes.len() as u32,
            sources: self.sources,
            workload: self.workload.clone(),
            rules: self.rules.clone(),
            checkpoint_interval: self.checkpoint_interval,
        }
    }

    /// Re-seeds `shards` onto `target`: an [`AdoptMsg`] with counter bases
    /// from the last checkpoint, the stored checkpoint state, the buffered
    /// post-checkpoint traffic in original order, then a re-sent epoch
    /// boundary (and `Finish`, mid-collection) so the target's ack covers
    /// the adopted work. Returns the recovery bytes shipped.
    fn restore_shards(&mut self, target: usize, shards: &[u32], epoch: u64) -> u64 {
        let adopt = AdoptMsg {
            shards: shards
                .iter()
                .map(|&s| match self.ckpt_counters.get(&s) {
                    Some(c) => AdoptShard {
                        shard: s,
                        drained_records: c.drained_records,
                        usage_us: c.usage_us,
                    },
                    None => AdoptShard {
                        shard: s,
                        drained_records: 0,
                        usage_us: 0.0,
                    },
                })
                .collect(),
        };
        let link = self.links[target].as_ref().expect("restore target is live");
        link.send(FrameKind::Adopt, &to_body(&adopt));
        let mut shipped = 0u64;
        for &s in shards {
            for (_, body) in self.ckpt_state.range((s, 0, 0)..=(s, u32::MAX, u32::MAX)) {
                shipped += link.send(FrameKind::Shard, body);
            }
            for (_, body) in self.replay[s as usize].lock().iter() {
                shipped += link.send(FrameKind::Shard, body);
            }
        }
        if self.epochs_sent > 0 {
            link.send(FrameKind::EpochEnd, &epoch.to_le_bytes());
        }
        if self.finishing {
            link.send(FrameKind::Finish, &[]);
        }
        for &s in shards {
            self.routes[s as usize] = Some(target);
        }
        shipped
    }

    /// Sends `Finish` to every live node, collects results / stats /
    /// `Done` from all of them (bounded by the node timeout, recovering
    /// from losses along the way), reconciles epoch acks, and returns the
    /// merged rows plus per-link accounting.
    pub(crate) fn finish(mut self) -> Result<RemoteFinish, DeployError> {
        self.finishing = true;
        let last_epoch = self.epochs_sent.saturating_sub(1);
        for (i, link) in self.links.iter().enumerate() {
            if self.alive[i] {
                if let Some(link) = link {
                    link.send(FrameKind::Finish, &[]);
                }
            }
        }
        let n = self.links.len();
        let mut done = vec![false; n];
        let mut stats: Vec<Option<NodeStatsMsg>> = vec![None; n];
        let deadline = Instant::now() + self.node_timeout;
        self.reset_liveness();
        // Collection is event-driven like `await_acks`, with a periodic
        // broken-writer rescan (no pings are sent during finish: nodes
        // are already streaming results, their traffic is the liveness
        // signal).
        let mut timers: DeadlineQueue<WakeKey> = DeadlineQueue::new();
        timers.arm(WakeKey::Heartbeat, Instant::now() + HEARTBEAT_EVERY);
        while (0..n).any(|i| self.alive[i] && !done[i]) {
            let mut lost_now: Vec<(u32, String)> = self.broken_links();
            if Instant::now() >= deadline {
                return Err(DeployError::NodeTimeout {
                    waited_ms: self.node_timeout.as_millis() as u64,
                    registered: done.iter().filter(|d| **d).count() as u32,
                    expected: n as u32,
                });
            }
            let ev = if lost_now.is_empty() {
                let now = Instant::now();
                for key in timers.due(now) {
                    if key == WakeKey::Heartbeat {
                        timers.arm(WakeKey::Heartbeat, now + HEARTBEAT_EVERY);
                    }
                }
                let wake = timers
                    .next_deadline()
                    .expect("the rescan timer stays armed")
                    .min(deadline);
                match self.events.lock().recv_deadline(wake) {
                    Ok(ev) => Some(ev),
                    // Deadline hit: loop around to rescan broken links
                    // and re-check the overall node timeout.
                    Err(_) => continue,
                }
            } else {
                None
            };
            match ev {
                None => {}
                Some(NodeEvent::Frame {
                    node,
                    gen,
                    kind,
                    body,
                }) => {
                    let i = node as usize;
                    if gen != self.gens[i] || !self.alive[i] {
                        continue;
                    }
                    self.last_heard[i] = Instant::now();
                    match kind {
                        FrameKind::Progress => self.on_progress(node, &body, last_epoch)?,
                        FrameKind::Pong => {}
                        FrameKind::Ckpt => self.staged_ckpt[i].push(body),
                        FrameKind::Results => {
                            if let Err(e) = self.stage_results(i, body) {
                                lost_now.push((node, e));
                            }
                        }
                        FrameKind::NodeStats => {
                            let msg: NodeStatsMsg = from_body(&body)
                                .map_err(|e| DeployError::NodeFailed { node, reason: e })?;
                            if msg.node_id != node {
                                return Err(DeployError::NodeFailed {
                                    node,
                                    reason: format!("stats claim node {}", msg.node_id),
                                });
                            }
                            stats[i] = Some(msg);
                        }
                        FrameKind::Done => {
                            if stats[i].is_none() {
                                return Err(DeployError::NodeFailed {
                                    node,
                                    reason: "Done before NodeStats".to_string(),
                                });
                            }
                            // Everything the node will ever send is in.
                            self.commit_results(i, |_| true);
                            done[i] = true;
                        }
                        other => {
                            lost_now
                                .push((node, format!("unexpected {other:?} frame during finish")));
                        }
                    }
                }
                Some(NodeEvent::Broken { node, gen, error }) => {
                    let i = node as usize;
                    if gen != self.gens[i] || !self.alive[i] {
                        continue;
                    }
                    lost_now.push((node, error));
                }
            }
            for (node, reason) in lost_now {
                let i = node as usize;
                // A node that said `Done` has nothing left to lose: its rows
                // are committed.
                if !self.alive[i] || done[i] {
                    continue;
                }
                // Its uncommitted rows are void: a reconnector re-finishes
                // from its restored state, a degraded node's are gone by
                // policy.
                self.handle_loss(node, last_epoch, &reason)?;
                stats[i] = None;
            }
        }

        // Every surviving node must have acked every announced boundary —
        // the exactness guarantee that no epoch's traffic went missing.
        if self.epochs_sent > 0 {
            for i in 0..n {
                if self.alive[i] && self.acked_epoch[i] != Some(last_epoch) {
                    return Err(DeployError::NodeFailed {
                        node: i as u32,
                        reason: format!(
                            "acked through epoch {:?}, expected {last_epoch}",
                            self.acked_epoch[i]
                        ),
                    });
                }
            }
        }

        let nodes = stats
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(msg) => msg.shards,
                // Degraded (or reassigned-away) nodes report nothing; their
                // last checkpointed counters stand in for the lost shards.
                None => self.degraded_from[i]
                    .iter()
                    .filter_map(|s| self.ckpt_counters.get(s).cloned())
                    .collect(),
            })
            .collect();

        let n_shards = self.routes.len();
        let mut shard_completeness = vec![1.0f64; n_shards];
        if self.epochs_sent > 0 {
            for (&s, &covered) in &self.degraded_covered {
                shard_completeness[s as usize] = covered as f64 / self.epochs_sent as f64;
            }
        }

        for (i, &done) in done.iter().enumerate() {
            // A reader that delivered `Done` returns right after, so it is
            // joined rather than detached: no thread of this cluster
            // outlives `finish`, and what the reader still held is
            // released before the recovery state goes.
            let reader = self.readers[i].take().filter(|_| done);
            self.retire_link(i);
            if let Some(reader) = reader {
                let _ = reader.join();
            }
        }
        let node_wire_bytes = (0..n)
            .map(|i| {
                self.retired_tx[i]
                    + self.handshake_tx[i]
                    + self.rx_counters[i].load(Ordering::Relaxed)
            })
            .collect();
        Ok(RemoteFinish {
            nodes,
            results: std::mem::take(&mut self.results),
            node_wire_bytes,
            incidents: std::mem::take(&mut self.incidents),
            replay_bytes: self.replay_bytes,
            heartbeats_sent: self.heartbeats_sent,
            shard_completeness,
        })
    }
}

impl Drop for RemoteCluster {
    fn drop(&mut self) {
        for link in self.links.iter_mut().flatten() {
            link.close();
        }
        // Reader threads exit on their own once the peer sockets close;
        // detach rather than block an error path on a hung node.
        for reader in &mut self.readers {
            drop(reader.take());
        }
    }
}

/// Probes an admitted-but-idle connection for death without consuming
/// data: a zero-length peek or a hard error means the peer is gone.
fn peer_disconnected(stream: &TcpStream) -> Option<String> {
    if stream.set_nonblocking(true).is_err() {
        return Some("admitted socket unusable".to_string());
    }
    let mut probe = [0u8; 1];
    let verdict = match stream.peek(&mut probe) {
        Ok(0) => Some("connection closed during admission".to_string()),
        Ok(_) => None,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
        Err(e) => Some(format!("connection errored during admission: {e}")),
    };
    let _ = stream.set_nonblocking(false);
    verdict
}

/// Runs the handshake on one accepted connection.
///
/// Returns `Ok(true)` when a node was admitted into a free slot,
/// `Ok(false)` when the connection was not speaking the protocol and was
/// dropped, and `Err` on protocol-level failures that abort the deployment.
fn admit(
    stream: TcpStream,
    peer: &str,
    spec: &DeploymentSpec,
    workload: &RemoteWorkload,
    n_shards: usize,
    n_nodes: usize,
    admitted: &mut [Option<AdmittedNode>],
) -> Result<bool, DeployError> {
    let fail = |reason: String| DeployError::HandshakeFailed {
        peer: peer.to_string(),
        reason,
    };
    let io_fail = |what: &str| {
        let what = what.to_string();
        move |e: std::io::Error| DeployError::HandshakeFailed {
            peer: peer.to_string(),
            reason: format!("{what}: {e}"),
        }
    };
    stream
        .set_nonblocking(false)
        .map_err(io_fail("set_nonblocking"))?;
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(io_fail("set_read_timeout"))?;
    let _ = stream.set_nodelay(true);
    let clone = stream.try_clone().map_err(io_fail("clone stream"))?;
    let mut reader = FrameReader::new(clone);

    let (kind, body) = match reader.read_frame_within(MAX_REGISTER_LEN) {
        Ok(frame) => frame,
        Err(TransportError::VersionMismatch { got, want }) => {
            return Err(fail(format!(
                "protocol version mismatch: peer speaks v{got}, coordinator wants v{want}"
            )));
        }
        // Not our protocol (garbage, scanners, half-open probes): drop the
        // connection and keep admitting.
        Err(_) => return Ok(false),
    };
    // A `Register` frame whose body does not parse is a stranger as well:
    // it cannot carry the token that would make its failure ours.
    if kind != FrameKind::Register {
        return Ok(false);
    }
    let Ok(reg) = from_body::<Register>(&body) else {
        return Ok(false);
    };
    let mut handshake_tx = 0u64;
    if reg.token != spec.auth_token {
        let _ = write_frame(
            &stream,
            FrameKind::Reject,
            &to_body(&Reject {
                reason: "authentication failed".to_string(),
            }),
        );
        return Err(fail("authentication failed (bad token)".to_string()));
    }
    let node_id = match reg.node_id {
        Some(id) if (id as usize) < n_nodes && admitted[id as usize].is_none() => id,
        Some(id) => {
            let reason = if (id as usize) >= n_nodes {
                format!("node id {id} out of range (cluster has {n_nodes} slots)")
            } else {
                format!("node id {id} already registered")
            };
            let _ = write_frame(
                &stream,
                FrameKind::Reject,
                &to_body(&Reject {
                    reason: reason.clone(),
                }),
            );
            return Err(fail(reason));
        }
        None => admitted
            .iter()
            .position(std::option::Option::is_none)
            .expect("admission loop only runs with free slots") as u32,
    };

    handshake_tx += write_frame(&stream, FrameKind::Admit, &to_body(&Admit { node_id }))
        .map_err(io_fail("send Admit"))?;
    let node_spec = NodeSpec {
        node_id,
        n_nodes: n_nodes as u32,
        n_shards: n_shards as u32,
        sources: spec.sources,
        workload: workload.clone(),
        rules: spec.rules.clone(),
        checkpoint_interval: spec.checkpoint_interval,
    };
    handshake_tx += write_frame(&stream, FrameKind::Spec, &to_body(&node_spec))
        .map_err(io_fail("send Spec"))?;

    // A registered node failing to come Ready is fatal: its shard slice
    // has nowhere else to go.
    match reader.read_frame() {
        Ok((FrameKind::Ready, _)) => {}
        Ok((other, _)) => return Err(fail(format!("expected Ready, got {other:?}"))),
        Err(e) => return Err(fail(format!("node {node_id} never came Ready: {e}"))),
    }
    stream
        .set_read_timeout(None)
        .map_err(io_fail("clear read timeout"))?;
    admitted[node_id as usize] = Some(AdmittedNode {
        stream,
        reader,
        handshake_tx,
    });
    Ok(true)
}

/// Writes one frame synchronously (handshake only — the run-time path goes
/// through [`Link`]'s writer thread). Returns the framed size.
fn write_frame(mut stream: &TcpStream, kind: FrameKind, body: &[u8]) -> std::io::Result<u64> {
    let frame = encode_frame(kind, body);
    stream.write_all(&frame)?;
    Ok(frame.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamkit::batch::{Column, DictBuilder, StreamDict};
    use streamkit::schema::{DataType, Field, Schema};

    #[test]
    fn reader_keeps_a_bounded_handle_on_small_bodies_only() {
        let mut small = SmallBodies(VecDeque::new());
        small.keep(&Bytes::from(vec![0u8; SMALL_BODY]));
        assert!(small.0.is_empty(), "large bodies are the consumer's alone");
        for i in 0..SMALL_BODIES_KEPT + 3 {
            small.keep(&Bytes::from(vec![i as u8; 1 + i % 7]));
        }
        assert_eq!(small.0.len(), SMALL_BODIES_KEPT);
        assert_eq!(small.0.front().map(|b| b[0]), Some(3), "oldest go first");
    }

    #[test]
    fn replay_shares_the_link_bytes_unless_a_persistent_dictionary_rides() {
        let schema = Schema::new(vec![
            Field::new("tenant", DataType::Str),
            Field::new("v", DataType::U64),
        ]);
        let mut stream = StreamDict::new();
        let persistent = Column::Dict {
            codes: vec![stream.intern("a"), stream.intern("b")],
            dict: stream.snapshot(),
        };
        let mut local = DictBuilder::new(2);
        local.push("a");
        local.push("b");
        let payload = |tenant: Column| NetPayload::ShardBatch {
            shard: 1,
            epoch: 0,
            source: 0,
            rel: 0,
            batch: Batch {
                schema: schema.clone(),
                timestamps: vec![0, 1],
                columns: vec![tenant, Column::U64(vec![7, 9])],
            },
        };
        let sync = Mutex::new(DictVersions::new());

        // Dictionary-free in the link's sense (a batch-local page ships
        // whole either way): one encode, the replay copy is a refcount.
        let p = payload(local.finish());
        let (body, replay) = link_and_replay_forms(&p, true, &sync);
        let replay = replay.expect("buffering keeps a replay copy");
        assert_eq!(body, replay);
        assert_eq!(body.as_ptr(), replay.as_ptr(), "shared, not re-encoded");
        assert!(sync.lock().is_empty(), "the link's versions are untouched");
        assert!(link_and_replay_forms(&p, false, &sync).1.is_none());

        // Persistent dictionary: the link gets deltas against its mirror,
        // the replay copy stays decodable with no link state at all.
        let p = payload(persistent);
        let (first, replay) = link_and_replay_forms(&p, true, &sync);
        let (second, _) = link_and_replay_forms(&p, true, &sync);
        assert!(second.len() < first.len(), "synced link ships codes only");
        assert_eq!(sync.lock()[&stream.id()], 2);
        let replay = replay.expect("buffering keeps a replay copy");
        assert_eq!(
            decode_shard_payload(replay, std::slice::from_ref(&schema)).unwrap(),
            p
        );
        assert!(decode_shard_payload(second, &[schema]).is_err());
    }
}
