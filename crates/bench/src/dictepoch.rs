//! Persistent cross-epoch dictionaries vs per-epoch rebuild for the perf
//! trajectory.
//!
//! Two arms, one workload (the LogAnalytics-style structured telemetry
//! stream):
//!
//! - **Throughput** — the LogAnalytics query's own `G+R` (count per
//!   `(tenant, stat_name, stat)`, as [`crate::groupagg::log_group_by`]
//!   builds it) over epochs after the plan's `M[WidthBucket]`, whose
//!   dictionary columns either share one persistent `StreamDict` per key
//!   stream (codes stable across epochs, so the operator's per-code key
//!   fragments carry over) or are rebuilt batch-locally every epoch (id-0
//!   pages: fragments re-encoded per batch — the pre-PR-9 regime,
//!   reproduced via `LogConfig::persistent_dicts = false`).
//! - **Wire** — the multi-node shape: each epoch's batch is partitioned
//!   over the shard ring and every sub-batch crosses a node link as a
//!   `NetPayload::ShardBatch`. Persistent streams ship a full dictionary
//!   page once per link and near-empty deltas after; the baseline
//!   re-ships the full page in every frame. Wire charges are
//!   deterministic byte counts, so this arm needs no timing at all.
//!
//! This runner produces the `dict_epoch` series in
//! `BENCH_throughput.json`.

use jarvis_core::engine::netwire::{
    decode_shard_payload_with, encode_shard_payload, encode_shard_payload_with,
};
use jarvis_core::engine::NetPayload;
use serde::{Deserialize, Serialize};
use streamkit::batch::{Batch, DictRegistry, DictVersions};
use telemetry::loganalytics::structured_log_schema;

use crate::groupagg::{fold_all, log_group_by, structured_epochs};
use crate::measure::best_secs_interleaved;

/// Epochs per run — enough for the cross-epoch caches (and the delta wire
/// regime) to dominate the first-contact setup cost.
const EPOCHS: i64 = 8;

/// Shards the wire arm partitions each epoch over (all remote over one
/// link, the worst case for dictionary re-shipping).
const WIRE_SHARDS: usize = 4;

/// Result of one persistent-vs-rebuild dictionary measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DictEpochResult {
    /// Workload identifier.
    pub pipeline: String,
    /// Epochs per iteration.
    pub epochs: u32,
    /// Rows pushed through each arm per iteration.
    pub rows: u64,
    /// Measured iterations per arm.
    pub iters: u32,
    /// Per-epoch-rebuild throughput, rows/second (best over iterations).
    pub rebuild_rows_per_sec: f64,
    /// Persistent-stream throughput, rows/second (best over iterations).
    pub persistent_rows_per_sec: f64,
    /// persistent / rebuild speedup factor.
    pub speedup: f64,
    /// Wire bytes per epoch when every frame re-ships its full dictionary
    /// pages (deterministic byte count, not a timing).
    pub full_page_wire_bytes_per_epoch: f64,
    /// Wire bytes per epoch when persistent pages ship as per-link deltas.
    pub delta_wire_bytes_per_epoch: f64,
    /// full-page / delta wire-bytes reduction factor.
    pub wire_reduction: f64,
}

impl DictEpochResult {
    /// Deterministic evidence the series must always carry, baseline or
    /// not: delta shipping must actually beat re-shipping full pages.
    pub fn contract_failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.delta_wire_bytes_per_epoch <= 0.0 {
            out.push("dict_epoch: delta arm shipped no wire bytes".to_string());
        }
        if self.delta_wire_bytes_per_epoch >= self.full_page_wire_bytes_per_epoch {
            out.push(format!(
                "dict_epoch: delta shipping ({:.0} B/epoch) must beat full pages \
                 ({:.0} B/epoch)",
                self.delta_wire_bytes_per_epoch, self.full_page_wire_bytes_per_epoch
            ));
        }
        out
    }

    /// Failures against the committed baseline's wire bytes. They are
    /// deterministic byte counts, so they must equal the committed ones
    /// exactly: only a change to the codec or to the workload moves them,
    /// and that change states the new bytes.
    pub fn wire_failures_vs(&self, baseline: &DictEpochResult) -> Vec<String> {
        let measured = (
            self.full_page_wire_bytes_per_epoch,
            self.delta_wire_bytes_per_epoch,
        );
        let committed = (
            baseline.full_page_wire_bytes_per_epoch,
            baseline.delta_wire_bytes_per_epoch,
        );
        if measured == committed {
            return Vec::new();
        }
        vec![format!(
            "dict_epoch wire: (full-page, delta) B/epoch = {measured:?} differs from the \
             committed {committed:?}"
        )]
    }
}

/// Total `ShardBatch` wire bytes for one run over a single node link.
/// `link`/`registry` carry dictionary state across epochs for the delta
/// arm; `None` measures the self-contained full-page form. Every delta
/// frame is decoded back through a receiver registry, so the measured
/// bytes are proven reassemblable, not just small.
pub fn wire_bytes(batches: &[Batch], delta: bool) -> u64 {
    let schemas = [structured_log_schema()];
    let mut link = DictVersions::new();
    let mut registry = DictRegistry::new();
    let mut total = 0u64;
    for (epoch, batch) in batches.iter().enumerate() {
        for (shard, sub) in batch
            .shard_by_key(&[0, 1], WIRE_SHARDS)
            .into_iter()
            .enumerate()
        {
            if sub.is_empty() {
                continue;
            }
            let payload = NetPayload::ShardBatch {
                shard: shard as u32,
                epoch: epoch as u64,
                source: 0,
                rel: 0,
                batch: sub,
            };
            let wire = if delta {
                encode_shard_payload_with(&payload, &mut link)
            } else {
                encode_shard_payload(&payload)
            };
            total += wire.len() as u64;
            if delta {
                decode_shard_payload_with(wire, &schemas, &mut registry)
                    .expect("delta frames must reassemble on the receiver");
            }
        }
    }
    total
}

/// Measures the persistent-vs-rebuild dictionary series. `iters` timed
/// iterations per throughput arm; the wire arm is deterministic.
pub fn bench_dict_epoch(iters: u32) -> DictEpochResult {
    let persistent = structured_epochs(EPOCHS, true);
    let rows: u64 = persistent.iter().map(|b| b.len() as u64).sum();
    let (mut rebuild_op, rebuild_in) = log_group_by(&structured_epochs(EPOCHS, false));
    let (mut persistent_op, persistent_in) = log_group_by(&persistent);
    let mut rebuild_arm = || fold_all(rebuild_op.as_mut(), &rebuild_in);
    let mut persistent_arm = || fold_all(persistent_op.as_mut(), &persistent_in);
    let secs = best_secs_interleaved(iters, &mut [&mut rebuild_arm, &mut persistent_arm]);
    let rebuild_rps = rows as f64 / secs[0];
    let persistent_rps = rows as f64 / secs[1];

    let full = wire_bytes(&persistent, false) as f64;
    let delta = wire_bytes(&persistent, true) as f64;
    let per_epoch = EPOCHS as f64;

    DictEpochResult {
        pipeline: "LogAnalytics G+R over its structured stream: persistent StreamDicts \
                   vs per-epoch page rebuild"
            .into(),
        epochs: EPOCHS as u32,
        rows,
        iters: iters.max(1),
        rebuild_rows_per_sec: rebuild_rps,
        persistent_rows_per_sec: persistent_rps,
        speedup: persistent_rps / rebuild_rps,
        full_page_wire_bytes_per_epoch: full / per_epoch,
        delta_wire_bytes_per_epoch: delta / per_epoch,
        wire_reduction: full / delta,
    }
}
