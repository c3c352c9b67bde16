//! Shard-scaling throughput for the perf trajectory.
//!
//! Measures the sharded SP runtime's group-aggregate-heavy hot path — the
//! S2SProbe chain over a high-cardinality Pingmesh stream, where the keyed
//! `G+R` dominates — at 1, 2, and 4 shards. It is a **one-router
//! critical-path model**, not the live topology: one serial router phase
//! (stateless prefix + [`Batch::shard_by_key`] partitioning) over the whole
//! input, then each shard's pipeline timed independently, reported as
//! `router + slowest shard`. The live session has no single router — every
//! source task runs its own prefix and split — so the series gates the
//! kernels on that path (prefix, partitioner, keyed `G+R`), and its ratio
//! is bounded by the serial phase by construction; whether it should
//! measure the parallel path instead, or go, is ROADMAP item 7(c). The
//! live tier's end-to-end scaling number is the repo benchmark's
//! `s2s_allsp_2node`; shard exactness under real tasks is covered by
//! `tests/shard_parity.rs`.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use streamkit::batch::Batch;
use streamkit::ops::{AggRole, Operator};
use streamkit::physical::{build_pipeline, CostProfile};
use streamkit::time::TS_MAX;
use telemetry::pingmesh::{PingmeshConfig, PingmeshGenerator};

use crate::measure::best_secs;

/// The perf-trajectory artifact (`BENCH_throughput.json`): one series per
/// optimized hot path. CI re-measures and fails loudly when a series'
/// speedup regresses more than 20% against the committed numbers (speedup
/// ratios, not absolute rates, so the gate is machine-independent). The
/// PR-2 `row_vs_batch` series retired together with the row shim it
/// measured; `tests/golden_fingerprints.rs` now pins those semantics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Group aggregation by key shape: str vs dict keys (PR 3), and the
    /// high-cardinality wide-int shape of the `s2s` boundary (PR 15).
    pub group_agg: crate::groupagg::GroupAggResult,
    /// Sharded SP runtime: 1/2/4 keyed shard pipelines (PR 4).
    pub shard_scaling: ShardScalingResult,
    /// Multi-node SP tier: 1/2/4 nodes over a fixed 4-shard ring (PR 5).
    pub node_scaling: crate::nodescale::NodeScalingResult,
    /// Framed-TCP socket transport vs in-process channel (PR 6).
    pub net_transport: crate::nettransport::NetTransportResult,
    /// Seeded node-loss drill: sever + reassign must keep the digest
    /// bit-identical (PR 8). `Option` so pre-PR-8 baselines (no such
    /// field) still load — the vendored serde reads a missing field as
    /// `Null`, which `Option` maps to `None`.
    pub fault_recovery: Option<crate::faultrecovery::FaultRecoveryResult>,
    /// Persistent cross-epoch dictionaries vs per-epoch rebuild:
    /// group-by throughput and delta vs full-page wire bytes (PR 9).
    /// `Option` for the same pre-PR baseline-loading reason.
    pub dict_epoch: Option<crate::dictepoch::DictEpochResult>,
    /// Encoded vs fixed-width bytes of one S2S and one LogAnalytics
    /// boundary chunk (PR 24) — deterministic byte counts, gated exactly.
    /// `Option` for the same pre-PR baseline-loading reason.
    pub wire_codec: Option<crate::wirecodec::WireCodecResult>,
}

/// Allowed relative speedup regression before the CI gate fails.
pub const REGRESSION_TOLERANCE: f64 = 0.20;

impl ThroughputReport {
    /// Compares this (freshly measured) report against committed baseline
    /// numbers. Returns the list of human-readable regressions — empty when
    /// every series is within tolerance.
    pub fn regressions_vs(&self, baseline: &ThroughputReport) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |name: &str, measured: f64, committed: f64| {
            if measured < committed * (1.0 - REGRESSION_TOLERANCE) {
                out.push(format!(
                    "{name}: measured speedup {measured:.2}x is more than {:.0}% below \
                     the committed {committed:.2}x",
                    REGRESSION_TOLERANCE * 100.0
                ));
            }
        };
        check(
            "group_agg",
            self.group_agg.speedup,
            baseline.group_agg.speedup,
        );
        check(
            "group_agg wide_int",
            self.group_agg.wide_int_vs_std_map,
            baseline.group_agg.wide_int_vs_std_map,
        );
        check(
            "shard_scaling@4",
            self.shard_scaling.speedup_at_max(),
            baseline.shard_scaling.speedup_at_max(),
        );
        check(
            "node_scaling@4",
            self.node_scaling.speedup_at_max(),
            baseline.node_scaling.speedup_at_max(),
        );
        check(
            "net_transport",
            self.net_transport.relative_throughput,
            baseline.net_transport.relative_throughput,
        );
        // The dict-epoch throughput and wire-reduction halves gate like
        // every other speedup series (ratios, machine-independent).
        if let (Some(de), Some(b)) = (&self.dict_epoch, &baseline.dict_epoch) {
            check("dict_epoch", de.speedup, b.speedup);
            check("dict_epoch wire", de.wire_reduction, b.wire_reduction);
        }
        // The fault-recovery series gates on evidence, not speed: the
        // measured drill must prove exact recovery regardless of what the
        // committed baseline recorded (timing is machine noise; losing
        // data is wrong everywhere).
        if let Some(fr) = &self.fault_recovery {
            out.extend(fr.contract_failures());
        } else if baseline.fault_recovery.is_some() {
            out.push(
                "fault_recovery: series missing from the measured report but present \
                 in the committed baseline"
                    .to_string(),
            );
        }
        // The dict-epoch series additionally gates on deterministic
        // evidence: deltas must beat full pages in the measured run,
        // whatever the baseline says.
        if let Some(de) = &self.dict_epoch {
            out.extend(de.contract_failures());
        } else if baseline.dict_epoch.is_some() {
            out.push(
                "dict_epoch: series missing from the measured report but present \
                 in the committed baseline"
                    .to_string(),
            );
        }
        // The wire-codec series gates on its byte counts alone: they are
        // deterministic, so they must equal the committed ones exactly.
        if let Some(wc) = &self.wire_codec {
            out.extend(wc.failures_vs(baseline.wire_codec.as_ref()));
        } else if baseline.wire_codec.is_some() {
            out.push(
                "wire_codec: series missing from the measured report but present \
                 in the committed baseline"
                    .to_string(),
            );
        }
        out
    }
}

/// Result of one shard-scaling measurement: parallel series over shard
/// counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardScalingResult {
    /// Workload identifier.
    pub pipeline: String,
    /// Rows pushed through the chain per iteration.
    pub rows: u64,
    /// Measured iterations per shard count.
    pub iters: u32,
    /// Shard counts measured (ascending; first is the unsharded baseline).
    pub shards: Vec<u32>,
    /// Critical-path throughput per shard count, rows/second.
    pub rows_per_sec: Vec<f64>,
    /// Speedup vs the unsharded baseline, per shard count.
    pub speedup: Vec<f64>,
}

impl ShardScalingResult {
    /// Speedup at the largest measured shard count (the CI-gated number).
    pub fn speedup_at_max(&self) -> f64 {
        self.speedup.last().copied().unwrap_or(1.0)
    }
}

/// The group-aggregate-heavy workload: S2SProbe over a wide peer space, so
/// nearly every row opens or probes a distinct `(srcIp, dstIp)` group and
/// the keyed `G+R` dominates the chain.
pub fn shard_scaling_epochs(n_epochs: i64) -> Vec<Batch> {
    let mut gen = PingmeshGenerator::new(PingmeshConfig {
        scale: 2.0,
        peer_ip_space: 20_000,
        ..Default::default()
    });
    (0..n_epochs)
        .map(|e| gen.generate_epoch_batch(e * 1_000_000, 1.0))
        .collect()
}

/// The measured chain split at its keyed boundary: the stateless prefix
/// (router side) and `n` independent keyed pipelines (one per shard).
pub struct ShardedChain {
    /// Group-key columns at the boundary edge.
    pub keys: Vec<usize>,
    /// Stateless prefix stages (router side).
    pub prefix: Vec<Box<dyn Operator>>,
    /// One keyed pipeline per shard.
    pub shards: Vec<Vec<Box<dyn Operator>>>,
}

impl ShardedChain {
    /// Runs one batch through the stateless prefix, returning what reaches
    /// the keyed boundary.
    pub fn run_prefix(&mut self, batch: Batch) -> Vec<Batch> {
        let mut cur = vec![batch];
        for op in &mut self.prefix {
            let mut next = Vec::new();
            for b in cur {
                op.process_batch(b, &mut next);
            }
            cur = next;
        }
        cur
    }
}

/// Builds the S2SProbe chain split for `n` shards.
pub fn build_sharded_chain(n: usize) -> ShardedChain {
    let plan = telemetry::queries::s2s_probe();
    let costs = CostProfile::default();
    let (boundary, keys) = plan.shard_boundary().expect("S2SProbe has a G+R");
    let mut prefix = build_pipeline(&plan, &costs, AggRole::Final).expect("valid plan");
    prefix.truncate(boundary);
    let shards = (0..n.max(1))
        .map(|_| {
            let mut ops = build_pipeline(&plan, &costs, AggRole::Final).expect("valid plan");
            ops.split_off(boundary)
        })
        .collect();
    ShardedChain {
        keys,
        prefix,
        shards,
    }
}

/// One iteration of the critical-path measurement. Returns
/// `(router_secs, max_shard_secs, emitted_rows)`.
pub fn run_sharded_iter(chain: &mut ShardedChain, batches: &[Batch]) -> (f64, f64, usize) {
    let n = chain.shards.len();
    // Router phase: stateless prefix, then key-hash partitioning.
    let start = Instant::now();
    let mut buckets: Vec<Vec<Batch>> = (0..n).map(|_| Vec::new()).collect();
    for batch in batches {
        for out in chain.run_prefix(batch.clone()) {
            if n == 1 {
                buckets[0].push(out);
            } else {
                for (k, sub) in out.shard_by_key(&chain.keys, n).into_iter().enumerate() {
                    if !sub.is_empty() {
                        buckets[k].push(sub);
                    }
                }
            }
        }
    }
    for op in &mut chain.prefix {
        op.reset();
    }
    let router_secs = start.elapsed().as_secs_f64();

    // Shard phase: each keyed pipeline timed independently; the critical
    // path is the slowest one.
    let mut max_shard_secs = 0.0f64;
    let mut emitted = 0usize;
    for (ops, bucket) in chain.shards.iter_mut().zip(buckets) {
        let start = Instant::now();
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
        max_shard_secs = max_shard_secs.max(start.elapsed().as_secs_f64());
    }
    (router_secs, max_shard_secs, emitted)
}

/// Measures the shard-scaling series. `iters` timed iterations per shard
/// count (best-of, like every trajectory series).
pub fn bench_shard_scaling(iters: u32) -> ShardScalingResult {
    let batches = shard_scaling_epochs(4);
    let rows: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let shard_counts = [1u32, 2, 4];

    let mut rows_per_sec = Vec::with_capacity(shard_counts.len());
    for &n in &shard_counts {
        let mut chain = build_sharded_chain(n as usize);
        run_sharded_iter(&mut chain, &batches); // warm-up
        let samples: Vec<f64> = (0..iters.max(1))
            .map(|_| {
                let (router, max_shard, emitted) = run_sharded_iter(&mut chain, &batches);
                assert!(emitted > 0, "the chain must emit results");
                router + max_shard
            })
            .collect();
        rows_per_sec.push(rows as f64 / best_secs(samples));
    }
    let base = rows_per_sec[0];
    ShardScalingResult {
        pipeline: "S2SProbe sharded G+R (20k peer space), critical path".into(),
        rows,
        iters: iters.max(1),
        shards: shard_counts.to_vec(),
        rows_per_sec: rows_per_sec.clone(),
        speedup: rows_per_sec.iter().map(|r| r / base).collect(),
    }
}
