//! Coordinator side of the TCP stream-processor tier.
//!
//! [`RemoteCluster`] replaces the in-process SP node threads of
//! [`super::session::LiveSession`] when a deployment selects
//! [`TransportKind::Tcp`](crate::deploy::TransportKind): it listens on the
//! configured endpoint, admits `jarvis-node` registrations (shared-token
//! auth, versioned handshake), pushes each node its
//! [`NodeSpec`](crate::deploy::remote::NodeSpec) slice, and then carries the
//! exact same `NetPayload` shard traffic the channel transport carries —
//! untouched `netwire` envelopes inside [`FrameKind::Shard`] frames — so
//! digests are bit-identical to the in-process run. Per-link socket byte
//! counters (TX from the writer thread, RX from the frame reader) feed
//! `RunReport.node_stats` with *actual* wire traffic rather than modelled
//! sizes.
//!
//! # A state machine and its TCP shell
//!
//! The protocol is [`Coordinator`], a state machine with no socket,
//! thread, channel, lock or clock: every rule below lives there and is unit
//! tested with scripted inputs. This module is its TCP shell. It owns what
//! touches the OS — the [`Acceptor`] thread, one reader thread per node
//! link (each with its [`SmallBodies`]), the writer [`Link`]s, the bounded
//! pre-auth read of a connection's first frame, and wall time — and the hot
//! data path, [`RemoteCluster::route_payload`], through which the epoch's
//! source tasks encode, log replay and send concurrently. Accepted
//! connections and reader frames arrive on one event channel. The shell
//! hands each to [`Coordinator::on`] with the time elapsed, carries out the
//! actions it returns, and otherwise blocks on the channel until the
//! coordinator's next deadline: the coordinator thread wakes exactly when
//! there is a frame to handle or a timer to honour, with no fixed-interval
//! `sleep` loop.
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
//!   replay logs to post-checkpoint traffic, bounding recovery cost.
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
//!   lost shards to survivors via an `AdoptMsg`, `Degrade` drops them and
//!   reports per-shard completeness, `Fail` surfaces the pre-fault error.
//!
//! Recovery re-ships *full* checkpoint snapshots plus every logged
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

use std::collections::VecDeque;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::Bytes;
use streamkit::batch::DictVersions;
use streamkit::schema::SchemaRef;

use super::coordinator::{Coordinator, In, Out, RemoteFinish};
use crate::deploy::remote::{MAX_READY_LEN, MAX_REGISTER_LEN};
use crate::deploy::{DeployError, DeploymentSpec, OnNodeLoss};
use crate::engine::netwire::{encode_shard_payload, encode_shard_payload_with, link_dependent};
use crate::engine::transport::{encode_frame, FrameKind, FrameReader, Link};
use crate::engine::NetPayload;
use crate::fault::FaultPlan;

/// Read deadline on a connection between accept and the end of its
/// handshake (admission and reconnect alike).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Connections parked while neither admission nor a reconnect window takes
/// them. Overflow drops the connection, like an overflowing OS accept
/// backlog would.
const ACCEPT_QUEUE: usize = 64;

/// Events-channel depth (progress frames are tiny; results frames are
/// chunked node-side).
const EVENT_QUEUE: usize = 4096;

/// Frame bodies shorter than this are released by the reader thread that
/// allocated them (see [`SmallBodies`]).
const SMALL_BODY: usize = 4096;

/// Small bodies a reader keeps its own handle on at a time — control
/// frames arrive a few per epoch, so this spans many epochs.
const SMALL_BODIES_KEPT: usize = 64;

/// What the coordinator thread wakes for.
enum Event {
    /// The acceptor took a connection off the listener.
    Accepted(TcpStream),
    /// A reader thread's frame or failure ([`In::Node`]).
    Node {
        node: u32,
        gen: u32,
        got: Result<(FrameKind, Bytes), String>,
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
    tx: SyncSender<Event>,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let mut small = SmallBodies(VecDeque::with_capacity(SMALL_BODIES_KEPT));
        loop {
            let got = reader.read_frame().map_err(|e| e.to_string());
            // The last frame is `Done`, or the failure.
            let last = got.as_ref().map_or(true, |(kind, body)| {
                small.keep(body);
                *kind == FrameKind::Done
            });
            if tx.send(Event::Node { node, gen, got }).is_err() || last {
                return;
            }
        }
    })
}

/// The blocking acceptor thread: owns the listener and feeds every
/// accepted connection into the event channel. Dropping the handle stops
/// the thread by arming the flag and self-dialing the listen endpoint to
/// unblock `accept`.
struct Acceptor {
    handle: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Acceptor {
    fn spawn(listener: TcpListener, addr: SocketAddr, tx: SyncSender<Event>) -> Acceptor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if flag.load(Ordering::Acquire) {
                        return;
                    }
                    match tx.try_send(Event::Accepted(stream)) {
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
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            // Unblock `accept` so the thread observes the flag (an
            // unspecified bind address is reachable via loopback); a failed
            // dial means the listener already died and accept errored out.
            let mut addr = self.addr;
            if addr.ip().is_unspecified() {
                addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
            }
            let _ = TcpStream::connect(addr);
            let _ = handle.join();
        }
    }
}

/// An accepted connection between its first frame and its install.
struct Pending {
    stream: TcpStream,
    /// Socket clone kept to force-unblock the reader once installed.
    shutdown: TcpStream,
    reader: FrameReader<TcpStream>,
    /// Handshake bytes written.
    tx: u64,
}

impl Pending {
    /// Readies an accepted socket for the handshake; `None` when the socket
    /// is unusable (the connection is dropped).
    fn open(stream: TcpStream) -> Option<Pending> {
        stream.set_nonblocking(false).ok()?;
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok()?;
        let _ = stream.set_nodelay(true);
        let reader = FrameReader::new(stream.try_clone().ok()?);
        let shutdown = stream.try_clone().ok()?;
        Some(Pending {
            stream,
            shutdown,
            reader,
            tx: 0,
        })
    }
}

/// One node's live connection.
struct Conn {
    link: Link,
    /// Socket clone used to force-unblock the reader on retirement.
    stream: TcpStream,
    reader: JoinHandle<()>,
    gen: u32,
}

/// The coordinator's handle on a fleet of admitted `jarvis-node` executors.
pub(crate) struct RemoteCluster {
    coord: Coordinator,
    /// Per node: its live connection (`None` once retired by a loss).
    conns: Vec<Option<Conn>>,
    /// RX byte counters per node, shared with its (current) reader and
    /// carried across reconnects.
    rx_counters: Vec<Arc<AtomicU64>>,
    /// TX bytes banked per node: handshake writes and retired links,
    /// summed across reconnects.
    tx_banked: Vec<u64>,
    /// Accepted connections and reader events. (Locked only for `Sync`:
    /// the coordinator thread is the one user, through `get_mut`.)
    events: Mutex<Receiver<Event>>,
    /// Kept so reconnected readers can feed the same channel.
    ev_tx: SyncSender<Event>,
    /// Connections accepted while no window took them, oldest first.
    backlog: VecDeque<TcpStream>,
    /// Blocking acceptor thread owning the listener; held for its drop
    /// guard only (stops and joins the thread, releasing the port).
    _acceptor: Acceptor,
    /// Replay logged by the epoch's source tasks since the last barrier,
    /// per shard (locked: they append concurrently through `&self`); handed
    /// to the coordinator at each barrier.
    replay: Vec<Mutex<Vec<(u64, Bytes)>>>,
    /// Sender-side persistent-dictionary versions per node link (locked:
    /// the epoch's source tasks encode concurrently through `&self`): the
    /// highest version of each dictionary already shipped over the link, so
    /// live shard frames carry delta pages only. Reset when a node
    /// reconnects — the rebuilt executor starts with empty mirrors, so the
    /// next frame re-seeds it with full pages.
    dict_sync: Vec<Mutex<DictVersions>>,
    /// Whether replay is logged (any recovery path configured).
    buffering: bool,
    /// Armed on the original links only; reconnected links are clean — a
    /// planned fault fires once.
    fault_plan: Option<FaultPlan>,
    /// Tick zero of the coordinator.
    start: Instant,
    /// The coordinator's actions, reused across inputs.
    outs: Vec<Out>,
}

/// Locks one of the routing locks the epoch's source tasks share.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a source task panicked while routing")
}

/// Encodes `payload` for its owner's link and, when `buffering`, for the
/// replay log. The link form is encoded against the link's
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
        let body = encode_shard_payload_with(payload, &mut lock(dict_sync));
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
        let listener = TcpListener::bind(addr).map_err(|e| DeployError::InvalidEndpoint {
            got: format!("{addr}: bind failed: {e}"),
        })?;
        let local = listener
            .local_addr()
            .map_err(|e| DeployError::InvalidEndpoint {
                got: format!("{addr}: {e}"),
            })?;
        let (ev_tx, events) = sync_channel::<Event>(EVENT_QUEUE);
        let acceptor = Acceptor::spawn(listener, local, ev_tx.clone());
        let buffering =
            !matches!(spec.on_node_loss, OnNodeLoss::Fail) || spec.reconnect_grace > Duration::ZERO;
        let start = Instant::now();
        let mut cluster = RemoteCluster {
            coord: Coordinator::new(spec, n_shards, n_nodes, final_schema, Duration::ZERO),
            conns: (0..n_nodes).map(|_| None).collect(),
            rx_counters: (0..n_nodes).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            tx_banked: vec![0; n_nodes],
            events: Mutex::new(events),
            ev_tx,
            backlog: VecDeque::new(),
            _acceptor: acceptor,
            replay: (0..n_shards).map(|_| Mutex::new(Vec::new())).collect(),
            dict_sync: (0..n_nodes)
                .map(|_| Mutex::new(DictVersions::new()))
                .collect(),
            buffering,
            fault_plan: spec.fault_plan.clone(),
            start,
            outs: Vec::new(),
        };
        cluster.drive()?;
        Ok(cluster)
    }

    /// Ships one shard payload to the shard's current owner, logging it
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
    /// * recovery replays a shard's log front to back, which again needs
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
        let owner = self.coord.owner(shard)?;
        let (body, replay) = link_and_replay_forms(payload, self.buffering, &self.dict_sync[owner]);
        if let Some(replay) = replay {
            lock(&self.replay[shard]).push((epoch, replay));
        }
        let conn = self.conns[owner].as_ref()?;
        Some(conn.link.send(FrameKind::Shard, &body))
    }

    /// Announces an epoch boundary to every live node, then blocks until
    /// each has acked it — detecting, and recovering from, node losses
    /// while it waits.
    pub(crate) fn epoch_end(&mut self, epoch: u64) -> Result<(), DeployError> {
        self.announce(In::EpochEnd(epoch))
    }

    /// Sends `Finish` to every live node, collects results / stats /
    /// `Done` from all of them (bounded by the node timeout, recovering
    /// from losses along the way), reconciles epoch acks, and returns the
    /// merged rows plus per-link accounting.
    pub(crate) fn finish(mut self) -> Result<RemoteFinish, DeployError> {
        self.announce(In::Finish)?;
        for node in 0..self.conns.len() {
            // A reader that delivered `Done` returns right after, so it is
            // joined rather than detached: no thread of this cluster
            // outlives `finish`, and what the reader still held is
            // released before the recovery state goes.
            let done = self.coord.said_done(node);
            self.retire(node, done);
        }
        let node_wire_bytes = (0..self.conns.len())
            .map(|i| self.tx_banked[i] + self.rx_counters[i].load(Ordering::Relaxed))
            .collect();
        self.coord.into_finish(node_wire_bytes)
    }

    /// Hands the coordinator the replay the source tasks logged since the
    /// last barrier, then `input` (a barrier or `Finish`), and drives it
    /// until every live node answered.
    fn announce(&mut self, input: In) -> Result<(), DeployError> {
        for (shard, log) in self.replay.iter_mut().enumerate() {
            let log = log.get_mut().expect("a source task panicked while routing");
            self.coord.log_replay(shard, log);
        }
        self.step(input, &mut None)?;
        self.drive()
    }

    /// Feeds the coordinator until its current wait settles: connections
    /// while admission or a reconnect window takes them, reader events and
    /// broken writers otherwise, and a tick whenever its deadline passes
    /// first.
    fn drive(&mut self) -> Result<(), DeployError> {
        loop {
            if self.coord.listening() {
                if let Some(stream) = self.backlog.pop_front() {
                    self.handshake(stream)?;
                    continue;
                }
            } else {
                self.scan_writers()?;
            }
            if self.coord.settled() {
                return Ok(());
            }
            let wait = self
                .coord
                .deadline()
                .map_or(Duration::MAX, |at| at.saturating_sub(self.start.elapsed()));
            let events = self
                .events
                .get_mut()
                .expect("the events lock is never taken");
            match events.recv_timeout(wait) {
                Ok(Event::Accepted(stream)) => {
                    if self.coord.listening() {
                        self.handshake(stream)?;
                    } else if self.backlog.len() < ACCEPT_QUEUE {
                        self.backlog.push_back(stream);
                    }
                }
                Ok(Event::Node { node, gen, got }) => {
                    self.step(In::Node { node, gen, got }, &mut None)?;
                }
                // `self.ev_tx` keeps the channel open, so this is the
                // deadline passing.
                Err(_) => self.step(In::Tick, &mut None)?,
            }
        }
    }

    /// Reports every live link whose writer thread hit a transport error.
    fn scan_writers(&mut self) -> Result<(), DeployError> {
        for node in 0..self.conns.len() {
            let Some(conn) = self.conns[node].as_ref().filter(|c| c.link.is_broken()) else {
                continue;
            };
            let error = conn
                .link
                .error()
                .map_or("writer failed".to_string(), |e| e.to_string());
            let (node, gen, got) = (node as u32, conn.gen, Err(error));
            self.step(In::Node { node, gen, got }, &mut None)?;
        }
        Ok(())
    }

    /// Runs the handshake on one accepted connection: its first frame is
    /// read within [`MAX_REGISTER_LEN`] before any token is checked, and
    /// `Ready` within [`MAX_READY_LEN`]. The coordinator decides what each
    /// means.
    fn handshake(&mut self, stream: TcpStream) -> Result<(), DeployError> {
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "unknown peer".to_string(), |p| p.to_string());
        let Some(mut conn) = Pending::open(stream) else {
            return Ok(());
        };
        let first = conn.reader.read_frame_within(MAX_REGISTER_LEN);
        let mut pending = Some(conn);
        self.step(In::Hello { peer, first }, &mut pending)?;
        if !self.coord.handshaking() {
            return Ok(());
        }
        // A failed `Admit` or `Spec` write shows here as a failed read.
        let conn = pending.as_mut().expect("a handshake owes Ready");
        let ready = conn
            .reader
            .read_frame_within(MAX_READY_LEN)
            .and_then(|(kind, _)| {
                conn.stream.set_read_timeout(None)?;
                Ok(kind)
            });
        self.step(In::Ready(ready), &mut pending)
    }

    /// Passes one input to the coordinator and carries out its actions
    /// (also those pushed before an error). `pending` is the connection
    /// being handshaken, if any.
    fn step(&mut self, input: In, pending: &mut Option<Pending>) -> Result<(), DeployError> {
        let result = self.coord.on(self.start.elapsed(), input, &mut self.outs);
        let mut outs = std::mem::take(&mut self.outs);
        for out in outs.drain(..) {
            match out {
                Out::Send { node, kind, body } => {
                    if let Some(conn) = &self.conns[node] {
                        conn.link.send(kind, &body);
                    }
                }
                Out::Reply { kind, body } => {
                    // Handshake frames are written synchronously; the
                    // run-time path goes through the link's writer thread.
                    if let Some(p) = pending.as_mut() {
                        let frame = encode_frame(kind, &body);
                        p.tx += (&p.stream)
                            .write_all(&frame)
                            .map_or(0, |()| frame.len() as u64);
                    }
                }
                Out::Install { node, gen } => {
                    let conn = pending.take().expect("an install ends a handshake");
                    self.install(node, gen, conn);
                }
                Out::Retire(node) => self.retire(node, false),
            }
        }
        self.outs = outs;
        result
    }

    /// Makes a handshaken connection `node`'s link under generation `gen`:
    /// writer link, reader thread, and byte accounting carried over.
    fn install(&mut self, node: usize, gen: u32, conn: Pending) {
        self.tx_banked[node] += conn.tx;
        let mut reader = conn.reader;
        reader.credit_to(Arc::clone(&self.rx_counters[node]));
        let link = match &self.fault_plan {
            Some(plan) if gen == 0 => {
                Link::spawn_with_faults(conn.stream, plan.faults_for(node as u32), plan.seed)
            }
            _ => Link::spawn(conn.stream),
        };
        if gen > 0 {
            // The reconnected executor rebuilt its engine — its dictionary
            // mirrors are empty. Resetting the link's versions makes the
            // next live frame re-seed them with full pages (replayed
            // checkpoint traffic is self-contained and needs no mirror
            // state).
            lock(&self.dict_sync[node]).clear();
        }
        let reader = spawn_reader(reader, node as u32, gen, self.ev_tx.clone());
        self.conns[node] = Some(Conn {
            link,
            stream: conn.shutdown,
            reader,
            gen,
        });
    }

    /// Tears down a node's connection: force-shutdown the socket (so a
    /// blocked reader/writer unblocks), close the link banking its TX
    /// bytes, and join the reader (`join`, once it delivered `Done`) or
    /// detach it (it exits on its own).
    fn retire(&mut self, node: usize, join: bool) {
        if let Some(conn) = self.conns[node].take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            let mut link = conn.link;
            link.close();
            self.tx_banked[node] += link.bytes_sent();
            if join {
                let _ = conn.reader.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::netwire::decode_shard_payload;
    use streamkit::batch::{Batch, Column, DictBuilder, StreamDict};
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
        assert!(lock(&sync).is_empty(), "the link's versions are untouched");
        assert!(link_and_replay_forms(&p, false, &sync).1.is_none());

        // Persistent dictionary: the link gets deltas against its mirror,
        // the replay copy stays decodable with no link state at all.
        let p = payload(persistent);
        let (first, replay) = link_and_replay_forms(&p, true, &sync);
        let (second, _) = link_and_replay_forms(&p, true, &sync);
        assert!(second.len() < first.len(), "synced link ships codes only");
        assert_eq!(lock(&sync)[&stream.id()], 2);
        let replay = replay.expect("buffering keeps a replay copy");
        assert_eq!(
            decode_shard_payload(replay, std::slice::from_ref(&schema)).unwrap(),
            p
        );
        assert!(decode_shard_payload(second, &[schema]).is_err());
    }
}
