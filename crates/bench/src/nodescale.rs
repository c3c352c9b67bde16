//! Node-scaling throughput for the perf trajectory.
//!
//! Measures the multi-node SP tier's critical path on the same
//! group-aggregate-heavy hot path as the shard-scaling series — the
//! S2SProbe chain over a high-cardinality Pingmesh stream — at 1, 2, and 4
//! SP nodes over a fixed 4-shard ring. Like `shard_scaling` it is a
//! **one-router critical-path model**, not the live topology: one serial
//! dispatch phase over the whole input (stateless prefix +
//! [`Batch::shard_by_key`] partitioning + encoding every remote-node
//! payload to its `NetPayload::ShardBatch` wire form, as if all of it
//! entered at node 0), then each node's phase (decoding its payloads +
//! running its owned shard pipelines) timed independently, reported as
//! `dispatch + slowest node`. Shards owned by node 0 skip the codec, as
//! ingress-local traffic does in the live session. The live session has no
//! single dispatcher — every source task splits and encodes its own
//! chunks — so the series gates the kernels on that path (partitioner,
//! `netwire` codec, keyed `G+R`) and its ratio is bounded by the serial
//! phase by construction; its fate is ROADMAP item 7(c). Node exactness
//! under real tasks and real byte transport is covered by
//! `tests/node_parity.rs`.

use std::time::Instant;

use jarvis_core::engine::netwire::{decode_shard_payload, encode_shard_payload};
use jarvis_core::engine::NetPayload;
use serde::{Deserialize, Serialize};
use streamkit::batch::Batch;
use streamkit::schema::SchemaRef;
use streamkit::shard::{node_of_shard, shards_of_node};
use streamkit::time::TS_MAX;

use crate::measure::best_secs;
use crate::shardscale::{build_sharded_chain, shard_scaling_epochs, ShardedChain};

/// Virtual shards on the ring for every node count (fixed, as in the
/// runtime: node counts only move placement).
pub const NODE_RING: usize = 4;

/// Result of one node-scaling measurement: parallel series over node
/// counts on the fixed [`NODE_RING`]-shard ring.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeScalingResult {
    /// Workload identifier.
    pub pipeline: String,
    /// Rows pushed through the chain per iteration.
    pub rows: u64,
    /// Measured iterations per node count.
    pub iters: u32,
    /// Node counts measured (ascending; first is the single-node baseline).
    pub nodes: Vec<u32>,
    /// Critical-path throughput per node count, rows/second.
    pub rows_per_sec: Vec<f64>,
    /// Speedup vs the single-node baseline, per node count.
    pub speedup: Vec<f64>,
}

impl NodeScalingResult {
    /// Speedup at the largest measured node count (the CI-gated number).
    pub fn speedup_at_max(&self) -> f64 {
        self.speedup.last().copied().unwrap_or(1.0)
    }
}

/// One iteration of the critical-path measurement at `n_nodes` over the
/// fixed ring. Returns `(dispatcher_secs, max_node_secs, emitted_rows)`.
pub fn run_node_iter(
    chain: &mut ShardedChain,
    suffix_schemas: &[SchemaRef],
    n_nodes: usize,
    batches: &[Batch],
) -> (f64, f64, usize) {
    let n_shards = chain.shards.len();
    assert!(n_nodes >= 1 && n_nodes <= n_shards);
    // Dispatcher phase: stateless prefix, key-hash partitioning, and the
    // wire encode of every payload leaving node 0.
    let start = Instant::now();
    let mut local: Vec<Vec<Batch>> = (0..n_shards).map(|_| Vec::new()).collect();
    let mut remote: Vec<Vec<bytes::Bytes>> = (0..n_nodes).map(|_| Vec::new()).collect();
    for batch in batches {
        for out in chain.run_prefix(batch.clone()) {
            if n_shards == 1 {
                local[0].push(out);
                continue;
            }
            for (s, sub) in out
                .shard_by_key(&chain.keys, n_shards)
                .into_iter()
                .enumerate()
            {
                if sub.is_empty() {
                    continue;
                }
                let owner = node_of_shard(s, n_shards, n_nodes);
                if owner == 0 {
                    local[s].push(sub);
                } else {
                    remote[owner].push(encode_shard_payload(&NetPayload::ShardBatch {
                        shard: s as u32,
                        epoch: 0,
                        source: 0,
                        rel: 0,
                        batch: sub,
                    }));
                }
            }
        }
    }
    for op in &mut chain.prefix {
        op.reset();
    }
    let dispatcher_secs = start.elapsed().as_secs_f64();

    // Node phase: each node decodes its payloads and runs its owned shard
    // pipelines serially; the critical path is the slowest node.
    let mut max_node_secs = 0.0f64;
    let mut emitted = 0usize;
    for (node, inbound) in remote.iter_mut().enumerate().take(n_nodes) {
        let owned = shards_of_node(node, n_shards, n_nodes);
        let start = Instant::now();
        let mut buckets: Vec<Vec<Batch>> = owned
            .clone()
            .map(|s| std::mem::take(&mut local[s]))
            .collect();
        for raw in inbound.drain(..) {
            let payload =
                decode_shard_payload(raw, suffix_schemas).expect("dispatcher encodes validly");
            let NetPayload::ShardBatch { shard, batch, .. } = payload else {
                unreachable!("the bench ships row payloads only");
            };
            buckets[shard as usize - owned.start].push(batch);
        }
        for (s, bucket) in owned.clone().zip(buckets) {
            let ops = &mut chain.shards[s];
            let mut sink = Vec::new();
            for b in bucket {
                ops[0].process_batch(b, &mut sink);
            }
            let mut cur = std::mem::take(&mut sink);
            ops[0].on_watermark(TS_MAX, &mut cur);
            for op in ops.iter_mut().skip(1) {
                let mut next = Vec::new();
                for b in cur {
                    op.process_batch(b, &mut next);
                }
                op.on_watermark(TS_MAX, &mut next);
                cur = next;
            }
            emitted += cur.iter().map(Batch::len).sum::<usize>();
            for op in ops.iter_mut() {
                op.reset();
            }
        }
        max_node_secs = max_node_secs.max(start.elapsed().as_secs_f64());
    }
    (dispatcher_secs, max_node_secs, emitted)
}

/// Input schemas of the measured chain's suffix stages (decode side of the
/// inter-node wire).
pub fn suffix_schemas() -> Vec<SchemaRef> {
    let plan = telemetry::queries::s2s_probe();
    let (boundary, _) = plan.shard_boundary().expect("S2SProbe has a G+R");
    plan.edge_schemas().expect("valid plan")[boundary..].to_vec()
}

/// Measures the node-scaling series. `iters` timed iterations per node
/// count (best-of, like every trajectory series).
pub fn bench_node_scaling(iters: u32) -> NodeScalingResult {
    let batches = shard_scaling_epochs(4);
    let rows: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let schemas = suffix_schemas();
    let node_counts = [1u32, 2, 4];

    let mut rows_per_sec = Vec::with_capacity(node_counts.len());
    for &n in &node_counts {
        let mut chain = build_sharded_chain(NODE_RING);
        run_node_iter(&mut chain, &schemas, n as usize, &batches); // warm-up
        let samples: Vec<f64> = (0..iters.max(1))
            .map(|_| {
                let (dispatch, max_node, emitted) =
                    run_node_iter(&mut chain, &schemas, n as usize, &batches);
                assert!(emitted > 0, "the chain must emit results");
                dispatch + max_node
            })
            .collect();
        rows_per_sec.push(rows as f64 / best_secs(samples));
    }
    let base = rows_per_sec[0];
    NodeScalingResult {
        pipeline: format!(
            "S2SProbe multi-node SP ({NODE_RING}-shard ring, 20k peer space), critical path"
        ),
        rows,
        iters: iters.max(1),
        nodes: node_counts.to_vec(),
        rows_per_sec: rows_per_sec.clone(),
        speedup: rows_per_sec.iter().map(|r| r / base).collect(),
    }
}
