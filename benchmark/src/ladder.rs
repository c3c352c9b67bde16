//! The outside-in layer ladder of the traced run.
//!
//! The first [`LADDER_EPOCHS`] measured epochs' generated batches are driven,
//! on one thread, down the same path the session sends them — telemetry →
//! source-side operators → stateless SP prefix → `shard_by_key` → `netwire`
//! encode/decode → suffix pipeline / `merge_state` → `drain_windows` — with
//! one span per call into a layer and the rows (entries, bytes) that reached
//! the call recorded on the span. The hops the session makes between tasks
//! (bounded channel, task spawn, framed loopback TCP) are timed separately at
//! the message counts and frame sizes the walk produced.
//!
//! What the session does *between* those calls — proxy routing, chunking,
//! splitting state by shard, `to_records`, rebuilding the task topology every
//! epoch — is deliberately not a rung: it is what
//! `live.session.overhead_ns_per_row` is left holding.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;

use bytes::Bytes;
use jarvis_core::calibration::{DRAINED_THRES, EPOCH_SECS, EXEC_QUANTUM, IDLE_THRES};
use jarvis_core::deploy::DeploymentSpec;
use jarvis_core::engine::block::EpochSource;
use jarvis_core::engine::netwire::{decode_shard_payload_with, encode_shard_payload_with};
use jarvis_core::engine::transport::{decode_frame, encode_frame, FrameKind, FrameReader, Link};
use jarvis_core::engine::NetPayload;
use jarvis_core::proxy::ControlProxy;
use jarvis_core::rt;
use streamkit::batch::{Batch, DictRegistry, DictVersions};
use streamkit::ops::{AggRole, GroupPartialEntry, OpKind, Operator, StatePartial};
use streamkit::physical::{build_pipeline, drain_windows};
use streamkit::schema::SchemaRef;
use streamkit::shard::{node_of_shard, shard_of_values};
use streamkit::time::TS_MAX;

use crate::reference::{epoch_start, run_chain};
use crate::session::LADDER_EPOCHS;
use crate::trace::Tracer;
use crate::workloads::{Workload, WARMUP_EPOCHS};

/// Rows per source → dispatcher message (`live::session`'s private `CHUNK`).
const MSG_ROWS: usize = 256;

/// Batch size the small-batch ratio compares the workload's messages with.
const BIG_BATCH_ROWS: usize = 4096;

/// Payload of the channel-hop probe, about the size of the session's
/// `Msg`/`NodeMsg` values (a `Batch` header plus routing fields).
type HopMsg = [u64; 16];

/// Span names whose self time is a rung of the ladder: together they are
/// what the layers cost the session per input row.
pub const RUNGS: [&str; 18] = [
    "telemetry.gen",
    "streamkit.ops.window",
    "streamkit.ops.filter",
    "streamkit.ops.map",
    "streamkit.ops.project",
    "streamkit.ops.join",
    "streamkit.ops.group",
    "streamkit.ops.partial_group",
    "streamkit.ops.merge",
    "streamkit.ops.drain",
    "streamkit.shard",
    "engine.netwire.batch_encode",
    "engine.netwire.batch_decode",
    "engine.netwire.state_encode",
    "engine.netwire.state_decode",
    "rt.chan.hop",
    "rt.spawn",
    "engine.transport.tcp_hop",
];

fn op_span(kind: OpKind, role: AggRole) -> &'static str {
    match kind {
        OpKind::Window => "streamkit.ops.window",
        OpKind::Filter => "streamkit.ops.filter",
        OpKind::Map => "streamkit.ops.map",
        OpKind::Project => "streamkit.ops.project",
        OpKind::Join => "streamkit.ops.join",
        OpKind::GroupAggregate => match role {
            AggRole::Partial => "streamkit.ops.partial_group",
            AggRole::Final => "streamkit.ops.group",
        },
    }
}

/// Counts taken at the ladder's boundaries (the spans carry the rest).
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub input_rows: u64,
    pub filter_in: u64,
    pub filter_out: u64,
    /// Source → dispatcher messages.
    pub source_msgs: u64,
    /// Dispatcher → node messages (local and wire).
    pub node_msgs: u64,
    pub batch_wire_bytes: u64,
    pub state_wire_bytes: u64,
    pub dict_delta_bytes: u64,
    /// Rows routed to each shard at the keyed boundary.
    pub shard_rows: Vec<u64>,
    pub result_rows: u64,
    pub epochs: u64,
    /// Whole-chain ns/row at the workload's message size ÷ at
    /// [`BIG_BATCH_ROWS`]-row batches.
    pub small_batch_ratio: f64,
}

impl Counts {
    /// Largest shard's share of the boundary rows over the mean share.
    pub fn shard_skew(&self) -> f64 {
        let total: u64 = self.shard_rows.iter().sum();
        let max = self.shard_rows.iter().copied().max().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            max as f64 * self.shard_rows.len() as f64 / total as f64
        }
    }
}

/// What a source task hands the dispatcher.
enum Msg {
    Drained { stage: usize, batch: Batch },
    State { stage: usize, delta: StatePartial },
}

struct Source {
    generator: Box<dyn EpochSource>,
    /// Source-side operator prefix (partial role), one proxy in front of each.
    local: Vec<Box<dyn Operator>>,
    proxies: Vec<ControlProxy>,
    /// The SP replica's stateless prefix, up to the keyed boundary.
    prefix: Vec<Box<dyn Operator>>,
}

/// Receiving end of one SP node's link.
struct Node {
    /// Dictionary versions the sender knows this node holds.
    sent: DictVersions,
    /// The node's mirror of the sender's dictionaries.
    registry: DictRegistry,
}

struct Ladder<'a> {
    tracer: &'a mut Tracer,
    counts: Counts,
    sources: Vec<Source>,
    nodes: Vec<Node>,
    /// `suffix[shard][source]`: the chain from the keyed boundary down.
    suffix: Vec<Vec<Vec<Box<dyn Operator>>>>,
    suffix_schemas: Vec<SchemaRef>,
    boundary: usize,
    shard_keys: Vec<usize>,
    n_shards: usize,
    n_nodes: usize,
    source_ops: usize,
    /// Every payload crosses the codec (the TCP tier has no local fast path).
    remote: bool,
    /// Encoded payloads of the current epoch, for the framed hop.
    epoch_frames: Vec<Bytes>,
    /// The first ladder epoch's raw input, per source.
    first_inputs: Vec<Batch>,
    input_schema: SchemaRef,
    epoch: u64,
}

/// Runs one operator call as a span counting the rows that reached it.
fn run_op(
    tracer: &mut Tracer,
    counts: &mut Counts,
    epoch: u64,
    op: &mut dyn Operator,
    role: AggRole,
    batch: Batch,
    out: &mut Vec<Batch>,
) {
    let rows = batch.len() as u64;
    let before: usize = out.iter().map(Batch::len).sum();
    let id = tracer.enter(op_span(op.kind(), role), epoch);
    op.process_batch(batch, out);
    tracer.exit(id, rows);
    if op.kind() == OpKind::Filter {
        let after: usize = out.iter().map(Batch::len).sum();
        counts.filter_in += rows;
        counts.filter_out += (after - before) as u64;
    }
}

/// Pushes `batches` through `ops`, one span per operator call.
fn run_ops(
    tracer: &mut Tracer,
    counts: &mut Counts,
    epoch: u64,
    ops: &mut [Box<dyn Operator>],
    mut batches: Vec<Batch>,
) -> Vec<Batch> {
    for op in ops {
        let mut next = Vec::new();
        for b in batches.drain(..) {
            run_op(
                tracer,
                counts,
                epoch,
                op.as_mut(),
                AggRole::Final,
                b,
                &mut next,
            );
        }
        batches = next;
    }
    batches
}

/// Queues `batch` for the dispatcher in message-sized chunks.
fn drain_to(msgs: &mut Vec<Msg>, stage: usize, batch: &Batch) {
    for chunk in batch.chunks(MSG_ROWS) {
        msgs.push(Msg::Drained {
            stage,
            batch: chunk,
        });
    }
}

impl Ladder<'_> {
    /// One source's epoch, as `live::session`'s worker executes it: route
    /// through each proxy, run the forwarded share locally, drain the rest.
    fn source_epoch(&mut self, s: usize, load_factors: &[f64]) -> Vec<Msg> {
        let Ladder {
            tracer,
            counts,
            sources,
            first_inputs,
            input_schema,
            ..
        } = self;
        let (epoch, source_ops) = (self.epoch, self.source_ops);
        let src = &mut sources[s];
        let id = tracer.enter("telemetry.gen", epoch);
        let mut input = src
            .generator
            .generate_epoch_batch(epoch_start(epoch), EPOCH_SECS);
        tracer.exit(id, input.len() as u64);
        input.relabel(input_schema);
        counts.input_rows += input.len() as u64;
        if epoch == WARMUP_EPOCHS {
            // Kept for the batch-size probe.
            first_inputs.push(input.clone());
        }

        let mut msgs = Vec::new();
        let mut batches = vec![input];
        for (i, &load_factor) in load_factors.iter().enumerate().take(source_ops) {
            let proxy = &mut src.proxies[i];
            if (proxy.load_factor() - load_factor).abs() > 1e-12 {
                proxy.set_load_factor(load_factor);
            }
            proxy.begin_epoch();
            let mut next = Vec::new();
            for batch in batches.drain(..) {
                let (fwd, drained) = proxy.split_batch(batch);
                if let Some(drained) = drained {
                    drain_to(&mut msgs, i, &drained);
                }
                if let Some(fwd) = fwd {
                    for sub in fwd.chunks(EXEC_QUANTUM) {
                        let op = src.local[i].as_mut();
                        run_op(tracer, counts, epoch, op, AggRole::Partial, sub, &mut next);
                    }
                }
            }
            batches = next;
        }
        for batch in batches.iter().filter(|b| !b.is_empty()) {
            drain_to(&mut msgs, source_ops, batch);
        }
        for (stage, op) in src.local.iter_mut().enumerate() {
            if !op.is_stateful() {
                continue;
            }
            let id = tracer.enter("streamkit.ops.partial_group", epoch);
            let delta = op.take_state_delta();
            tracer.exit(id, 0);
            if let Some(delta) = delta {
                msgs.push(Msg::State { stage, delta });
            }
        }
        counts.source_msgs += msgs.len() as u64;
        msgs
    }

    /// The dispatcher's handling of one source message.
    fn dispatch(&mut self, s: usize, msg: Msg) {
        match msg {
            Msg::Drained { stage, batch } => {
                if stage >= self.boundary {
                    self.dispatch_batch(s, stage - self.boundary, batch);
                    return;
                }
                let prefix = &mut self.sources[s].prefix[stage..];
                let batches = run_ops(
                    self.tracer,
                    &mut self.counts,
                    self.epoch,
                    prefix,
                    vec![batch],
                );
                for b in batches {
                    self.dispatch_batch(s, 0, b);
                }
            }
            Msg::State { stage, delta } => {
                assert!(stage >= self.boundary, "only keyed operators ship state");
                let rel = stage - self.boundary;
                let StatePartial::Group(entries) = delta;
                let mut per_shard: Vec<Vec<GroupPartialEntry>> =
                    (0..self.n_shards).map(|_| Vec::new()).collect();
                for entry in entries {
                    per_shard[shard_of_values(&entry.key, self.n_shards)].push(entry);
                }
                for (shard, part) in per_shard.into_iter().enumerate() {
                    if !part.is_empty() {
                        self.ship_state(s, shard, rel, StatePartial::Group(part));
                    }
                }
            }
        }
    }

    fn dispatch_batch(&mut self, s: usize, rel: usize, batch: Batch) {
        if batch.is_empty() {
            return;
        }
        if rel == 0 && self.n_shards > 1 && !self.shard_keys.is_empty() {
            let rows = batch.len() as u64;
            let id = self.tracer.enter("streamkit.shard", self.epoch);
            let parts = batch.shard_by_key(&self.shard_keys, self.n_shards);
            self.tracer.exit(id, rows);
            for (shard, part) in parts.into_iter().enumerate() {
                if !part.is_empty() {
                    self.counts.shard_rows[shard] += part.len() as u64;
                    self.ship_batch(s, shard, 0, part);
                }
            }
        } else {
            self.counts.shard_rows[0] += batch.len() as u64;
            self.ship_batch(s, 0, rel, batch);
        }
    }

    /// Whether a payload from source `s` to `shard` crosses the codec.
    fn crosses_wire(&self, s: usize, shard: usize) -> Option<usize> {
        let owner = node_of_shard(shard, self.n_shards, self.n_nodes);
        (self.remote || owner != s % self.n_nodes).then_some(owner)
    }

    fn ship_batch(&mut self, s: usize, shard: usize, rel: usize, batch: Batch) {
        self.counts.node_msgs += 1;
        let batch = match self.crosses_wire(s, shard) {
            None => batch,
            Some(owner) => {
                let rows = batch.len() as u64;
                let payload = NetPayload::ShardBatch {
                    shard: shard as u32,
                    epoch: self.epoch,
                    source: s as u32,
                    rel: rel as u32,
                    batch,
                };
                let id = self.tracer.enter("engine.netwire.batch_encode", self.epoch);
                let wire = encode_shard_payload_with(&payload, &mut self.nodes[owner].sent);
                self.tracer.exit(id, rows);
                self.counts.batch_wire_bytes += wire.len() as u64;
                // A second encode against the now-current versions carries
                // no dictionary page: the difference is the delta shipped.
                let NetPayload::ShardBatch { batch, .. } = &payload else {
                    unreachable!()
                };
                if batch.columns.iter().any(|c| c.as_dict().is_some()) {
                    let bare = encode_shard_payload_with(&payload, &mut self.nodes[owner].sent);
                    self.counts.dict_delta_bytes += (wire.len() - bare.len()) as u64;
                }
                if self.remote {
                    self.epoch_frames.push(wire.clone());
                }
                let id = self.tracer.enter("engine.netwire.batch_decode", self.epoch);
                let decoded = decode_shard_payload_with(
                    wire,
                    &self.suffix_schemas,
                    &mut self.nodes[owner].registry,
                )
                .expect("the ladder decodes what it encoded");
                self.tracer.exit(id, rows);
                let NetPayload::ShardBatch { batch, .. } = decoded else {
                    unreachable!()
                };
                batch
            }
        };
        // The node's shard pipeline from `rel` down.
        let chain = &mut self.suffix[shard][s];
        let skip = rel.min(chain.len());
        let batches = run_ops(
            self.tracer,
            &mut self.counts,
            self.epoch,
            &mut chain[skip..],
            vec![batch],
        );
        self.counts.result_rows += batches.iter().map(|b| b.len() as u64).sum::<u64>();
    }

    fn ship_state(&mut self, s: usize, shard: usize, rel: usize, delta: StatePartial) {
        self.counts.node_msgs += 1;
        let entries = delta.entry_count() as u64;
        let delta = match self.crosses_wire(s, shard) {
            None => delta,
            Some(owner) => {
                let payload = NetPayload::ShardState {
                    shard: shard as u32,
                    epoch: self.epoch,
                    source: s as u32,
                    rel: rel as u32,
                    delta,
                };
                let id = self.tracer.enter("engine.netwire.state_encode", self.epoch);
                let wire = encode_shard_payload_with(&payload, &mut self.nodes[owner].sent);
                self.tracer.exit(id, entries);
                self.counts.state_wire_bytes += wire.len() as u64;
                if self.remote {
                    self.epoch_frames.push(wire.clone());
                }
                let id = self.tracer.enter("engine.netwire.state_decode", self.epoch);
                let decoded = decode_shard_payload_with(
                    wire,
                    &self.suffix_schemas,
                    &mut self.nodes[owner].registry,
                )
                .expect("the ladder decodes what it encoded");
                self.tracer.exit(id, entries);
                let NetPayload::ShardState { delta, .. } = decoded else {
                    unreachable!()
                };
                delta
            }
        };
        let id = self.tracer.enter("streamkit.ops.merge", self.epoch);
        self.suffix[shard][s][rel].merge_state(delta);
        self.tracer.exit(id, entries);
    }

    /// Closes every window on every shard pipeline, as `try_finish` does.
    fn drain(&mut self) {
        for shard in &mut self.suffix {
            for chain in shard.iter_mut() {
                let id = self.tracer.enter("streamkit.ops.drain", self.epoch);
                let out = drain_windows(chain, TS_MAX);
                let rows: u64 = out.iter().map(|b| b.len() as u64).sum();
                self.tracer.exit(id, rows);
                self.counts.result_rows += rows;
            }
        }
    }
}

/// The loopback peer of the framed hop: reads frames until the link closes
/// and acknowledges every `EpochEnd`.
struct LoopbackPeer {
    link: Link,
    acks: mpsc::Receiver<()>,
    reader: thread::JoinHandle<()>,
}

impl LoopbackPeer {
    fn connect() -> LoopbackPeer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let (ack_tx, acks) = mpsc::channel();
        let reader = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("loopback accept");
            let _ = stream.set_nodelay(true);
            let mut frames = FrameReader::new(stream);
            while let Ok((kind, body)) = frames.read_frame() {
                std::hint::black_box(body);
                if kind == FrameKind::EpochEnd && ack_tx.send(()).is_err() {
                    break;
                }
            }
        });
        let stream = TcpStream::connect(addr).expect("loopback connect");
        let _ = stream.set_nodelay(true);
        LoopbackPeer {
            link: Link::spawn(stream),
            acks,
            reader,
        }
    }

    /// Sends one epoch's payloads as `Shard` frames and waits until the peer
    /// has read them all. Returns the framed bytes sent.
    fn hop(&mut self, payloads: &[Bytes]) -> u64 {
        let mut sent = 0;
        for body in payloads {
            sent += self.link.send(FrameKind::Shard, body);
        }
        sent += self.link.send(FrameKind::EpochEnd, &[]);
        self.acks
            .recv()
            .expect("loopback peer acknowledges the epoch");
        sent
    }

    fn close(mut self) {
        self.link.close();
        self.reader
            .join()
            .expect("loopback reader exits when the link closes");
    }
}

/// Times `encode_frame` + `decode_frame` over `payloads` (count: bytes).
fn frame_codec(tracer: &mut Tracer, epoch: u64, payloads: &[Bytes]) {
    let id = tracer.enter("engine.transport.frame", epoch);
    let mut bytes = 0u64;
    for body in payloads {
        let frame = encode_frame(FrameKind::Shard, body);
        let (_, decoded, used) = decode_frame(&frame).expect("own frame decodes");
        bytes += used as u64;
        std::hint::black_box(decoded);
    }
    tracer.exit(id, bytes);
}

/// Times `msgs` messages from one task to another over a bounded channel of
/// the session's capacity on a 1-worker runtime, received in bursts.
fn channel_hop(tracer: &mut Tracer, msgs: u64, capacity: usize) {
    if msgs == 0 {
        return;
    }
    let runtime = rt::Runtime::new(1);
    let (tx, mut rx) = rt::chan::bounded::<HopMsg>(capacity);
    let id = tracer.enter("rt.chan.hop", 0);
    let producer = runtime.spawn(async move {
        for i in 0..msgs {
            if tx.send([i; 16]).await.is_err() {
                break;
            }
        }
    });
    let consumer = runtime.spawn(async move {
        let mut seen = 0u64;
        let mut buf = Vec::new();
        while rx.recv_many(&mut buf).await > 0 {
            for msg in buf.drain(..) {
                seen += u64::from(std::hint::black_box(msg)[0] < u64::MAX);
            }
        }
        seen
    });
    producer.join();
    let seen = consumer.join();
    tracer.exit(id, seen);
    assert_eq!(seen, msgs, "every message crosses the channel");
}

/// Times spawning and joining the session's per-epoch task set.
fn task_spawn(tracer: &mut Tracer, tasks_per_epoch: u64, epochs: u64) {
    let runtime = rt::Runtime::new(1);
    let handle = runtime.handle();
    let id = tracer.enter("rt.spawn", 0);
    for _ in 0..epochs {
        let handles: Vec<_> = (0..tasks_per_epoch)
            .map(|i| handle.spawn(async move { i }))
            .collect();
        for h in handles {
            std::hint::black_box(h.join());
        }
    }
    tracer.exit(id, tasks_per_epoch * epochs);
}

/// Whole-chain cost of `inputs` at the workload's message size relative to
/// [`BIG_BATCH_ROWS`]-row batches, on fresh final-role chains.
fn small_batch_ratio(spec: &DeploymentSpec, inputs: &[Batch]) -> f64 {
    let plan = &spec.planned.plan;
    let costs = spec.workload.costs();
    let time = |batches: Vec<Batch>| {
        let mut chain = build_pipeline(plan, &costs, AggRole::Final).expect("plan builds");
        let t = std::time::Instant::now();
        for b in batches {
            std::hint::black_box(run_chain(&mut chain, b));
        }
        t.elapsed().as_secs_f64()
    };
    let small: Vec<Batch> = inputs.iter().flat_map(|b| b.chunks(MSG_ROWS)).collect();
    let big: Vec<Batch> = if inputs.iter().all(|b| b.len() >= BIG_BATCH_ROWS) {
        inputs
            .iter()
            .flat_map(|b| b.chunks(BIG_BATCH_ROWS))
            .collect()
    } else {
        // Sources too small for a big batch: re-batch their rows together.
        let records: Vec<_> = inputs.iter().flat_map(Batch::to_records).collect();
        records
            .chunks(BIG_BATCH_ROWS)
            .map(|rows| {
                Batch::from_records(inputs[0].schema.clone(), rows).expect("rows fit their schema")
            })
            .collect()
    };
    // Alternate and keep the best of three, so neither side is the cold one.
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        best.0 = best.0.min(time(small.clone()));
        best.1 = best.1.min(time(big.clone()));
    }
    best.0 / best.1
}

/// Walks the ladder. `load_factors[e][s]` are source `s`'s load factors in
/// ladder epoch `e`, as the traced session had them.
pub fn run(
    tracer: &mut Tracer,
    w: &Workload,
    spec: &DeploymentSpec,
    load_factors: &[Vec<Vec<f64>>],
    channel_capacity: usize,
) -> Counts {
    let plan = &spec.planned.plan;
    let costs = spec.workload.costs();
    let n = w.sources as usize;
    let source_ops = spec.planned.source_ops;
    let (boundary, shard_keys) = plan.shard_boundary().unwrap_or((plan.len(), Vec::new()));
    let (n_shards, n_nodes) = if shard_keys.is_empty() {
        (1, 1)
    } else {
        (w.sp_shards as usize, w.sp_nodes as usize)
    };
    let edge_schemas = plan.edge_schemas().expect("validated plan");
    let input_schema = edge_schemas[0].clone();
    let build = |role| build_pipeline(plan, &costs, role).expect("validated plan builds");

    let mut sources: Vec<Source> = (0..n)
        .map(|i| {
            let mut local = build(AggRole::Partial);
            local.truncate(source_ops);
            let mut prefix = build(AggRole::Final);
            prefix.truncate(boundary);
            Source {
                generator: spec.workload.generator(i as u32, w.sources),
                local,
                proxies: (0..source_ops)
                    .map(|_| ControlProxy::new(0.0, DRAINED_THRES, IDLE_THRES))
                    .collect(),
                prefix,
            }
        })
        .collect();
    // The ladder starts where the measured phase does: skip the warm-up
    // epochs' input.
    for epoch in 0..WARMUP_EPOCHS {
        for src in &mut sources {
            src.generator
                .generate_epoch_batch(epoch_start(epoch), EPOCH_SECS);
        }
    }
    let suffix = (0..n_shards)
        .map(|_| {
            (0..n)
                .map(|_| build(AggRole::Final).split_off(boundary))
                .collect()
        })
        .collect();

    let mut ladder = Ladder {
        tracer,
        counts: Counts {
            shard_rows: vec![0; n_shards],
            ..Counts::default()
        },
        sources,
        nodes: (0..n_nodes)
            .map(|_| Node {
                sent: DictVersions::new(),
                registry: DictRegistry::default(),
            })
            .collect(),
        suffix,
        suffix_schemas: edge_schemas[boundary..].to_vec(),
        boundary,
        shard_keys,
        n_shards,
        n_nodes,
        source_ops,
        remote: w.is_tcp(),
        epoch_frames: Vec::new(),
        first_inputs: Vec::new(),
        input_schema,
        epoch: 0,
    };

    let mut peer = w.is_tcp().then(LoopbackPeer::connect);
    let epochs = LADDER_EPOCHS.min(load_factors.len() as u64);
    for (epoch, per_source) in (WARMUP_EPOCHS..).zip(load_factors.iter().take(epochs as usize)) {
        ladder.epoch = epoch;
        for (s, factors) in per_source.iter().enumerate() {
            for msg in ladder.source_epoch(s, factors) {
                ladder.dispatch(s, msg);
            }
        }
        if let Some(peer) = &mut peer {
            let frames = std::mem::take(&mut ladder.epoch_frames);
            frame_codec(ladder.tracer, ladder.epoch, &frames);
            let id = ladder
                .tracer
                .enter("engine.transport.tcp_hop", ladder.epoch);
            let sent = peer.hop(&frames);
            ladder.tracer.exit(id, sent);
        }
    }
    ladder.epoch = WARMUP_EPOCHS + epochs;
    ladder.drain();
    if let Some(peer) = peer {
        peer.close();
    }
    let first_inputs = ladder.first_inputs;
    let mut counts = ladder.counts;
    counts.epochs = epochs;
    // One task per source, the dispatcher, and one per in-process node.
    let tasks_per_epoch = n as u64 + 1 + if w.is_tcp() { 0 } else { n_nodes as u64 };
    channel_hop(
        tracer,
        counts.source_msgs + counts.node_msgs,
        channel_capacity,
    );
    task_spawn(tracer, tasks_per_epoch, epochs);
    counts.small_batch_ratio = small_batch_ratio(spec, &first_inputs);
    counts
}
