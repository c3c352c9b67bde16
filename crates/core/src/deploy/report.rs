//! The unified run report.
//!
//! [`RunReport`] subsumes the per-front-door report types the repo once
//! accumulated (`ScenarioReport`, `RunnerReport` and the fixed-factor
//! runner's report are gone with their front doors): every
//! [`crate::deploy::ExecBackend`] fills the fields it can measure and leaves
//! the rest at their empty defaults. Reports serialize to JSON so the bench
//! harness's output stays machine-readable.

use std::fmt::{self, Write};
use std::ops::Range;

use serde::{Deserialize, Serialize};
use streamkit::batch::{Batch, Column};
use streamkit::record::Record;
use streamkit::time::Ts;
use streamkit::value::Value;

use crate::runtime::EpochTrace;
use crate::strategy::StrategyKind;

/// An order-independent fingerprint of a result-row multiset.
///
/// Rows are canonicalised (floats rounded to 7 significant digits so that
/// re-association across different record splits washes out), sorted, and
/// FNV-1a hashed. Two backends executing the same deployment losslessly must
/// produce equal digests — the paper's exactness property (§VI-D). Rows are
/// read where they are: a `[Batch]` digests straight from its columns, to
/// the same value as its rows as [`Record`]s, however they are batched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExactnessDigest {
    /// Number of result rows.
    pub rows: u64,
    /// Hex FNV-1a 64 over the sorted canonical rows.
    pub digest: String,
}

impl ExactnessDigest {
    /// Digests a result-row multiset: `[Record]`, `[Batch]`, or a `Vec` of
    /// either.
    pub fn of_rows<R: ResultRows + ?Sized>(rows: &R) -> ExactnessDigest {
        let mut canon = CanonicalRows::default();
        rows.write_canonical(&mut canon);
        let CanonicalRows { text, mut rows } = canon;
        let text = text.as_bytes();
        rows.sort_unstable_by(|a, b| text[a.clone()].cmp(&text[b.clone()]));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for row in &rows {
            for &b in &text[row.clone()] {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            // Row separator so concatenation boundaries hash distinctly.
            h ^= 0x1e;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        ExactnessDigest {
            rows: rows.len() as u64,
            digest: format!("{h:016x}"),
        }
    }
}

/// Canonical rows written end to end into one buffer: `ts|` followed by
/// `cell;` per value, a float as `f{:.6e}` and any other value as its
/// [`Value`] `Debug` text.
#[derive(Default)]
pub struct CanonicalRows {
    text: String,
    rows: Vec<Range<usize>>,
}

impl CanonicalRows {
    fn begin(&mut self, ts: Ts) -> usize {
        let start = self.text.len();
        let _ = write!(self.text, "{ts}|");
        start
    }

    fn end(&mut self, start: usize) {
        self.rows.push(start..self.text.len());
    }
}

/// Result rows [`ExactnessDigest::of_rows`] can read.
pub trait ResultRows {
    /// Appends every row's canonical form to `out`.
    fn write_canonical(&self, out: &mut CanonicalRows);
}

impl ResultRows for [Record] {
    fn write_canonical(&self, out: &mut CanonicalRows) {
        for rec in self {
            let start = out.begin(rec.ts);
            for v in &rec.values {
                let _ = match v {
                    Value::F64(f) => write!(out.text, "f{f:.6e};"),
                    other => write!(out.text, "{other:?};"),
                };
            }
            out.end(start);
        }
    }
}

impl ResultRows for [Batch] {
    fn write_canonical(&self, out: &mut CanonicalRows) {
        for batch in self {
            for (row, &ts) in batch.timestamps.iter().enumerate() {
                let start = out.begin(ts);
                for col in &batch.columns {
                    let _ = write_cell(&mut out.text, col, row);
                    out.text.push(';');
                }
                out.end(start);
            }
        }
    }
}

impl<T> ResultRows for Vec<T>
where
    [T]: ResultRows,
{
    fn write_canonical(&self, out: &mut CanonicalRows) {
        self.as_slice().write_canonical(out);
    }
}

/// Writes `col`'s cell at `row` as the [`Value`] that [`Column::value`]
/// would return prints in a [`Record`]'s canonical row, without building it.
fn write_cell(text: &mut String, col: &Column, row: usize) -> fmt::Result {
    match col {
        Column::Bool(v) => write!(text, "Bool({:?})", v[row]),
        Column::I64(v) => write!(text, "I64({:?})", v[row]),
        Column::U64(v) => write!(text, "U64({:?})", v[row]),
        Column::F64(v) => write!(text, "f{:.6e}", v[row]),
        Column::Str { .. } | Column::Dict { .. } => {
            write!(text, "Str({:?})", col.str_at(row).unwrap_or(""))
        }
        Column::Opt { valid, values } if valid[row] => write_cell(text, values, row),
        Column::Opt { .. } => text.write_str("Null"),
    }
}

/// Per-shard drain/usage/wire counters of a sharded SP runtime.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardStat {
    /// Input rows routed into the shard by the key-hash partitioner.
    pub drained_records: u64,
    /// Compute charged to the shard's pipeline, µs (modelled on the
    /// emulated backend, counterfactual on the live backend).
    pub usage_us: f64,
    /// Wire bytes shipped across SP nodes toward this shard (zero on a
    /// single-node SP — local shard traffic never touches a link).
    pub wire_bytes_out: u64,
    /// Fraction of the run's epochs whose traffic this shard's results
    /// cover. 1.0 everywhere on a fault-free run; under
    /// [`crate::deploy::OnNodeLoss::Degrade`] a shard lost at epoch `k` of
    /// `N` reports `k / N`.
    pub completeness: f64,
}

// Hand-written so JSON predating the `completeness` field (the vendored
// serde_derive has no `#[serde(default)]`) still loads as fully complete.
impl serde::Deserialize for ShardStat {
    fn from_content(c: &serde::Content) -> Result<Self, serde::DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| serde::DeError::expected("object", "ShardStat"))?;
        Ok(ShardStat {
            drained_records: serde::Deserialize::from_content(serde::content::field(
                m,
                "drained_records",
            ))?,
            usage_us: serde::Deserialize::from_content(serde::content::field(m, "usage_us"))?,
            wire_bytes_out: serde::Deserialize::from_content(serde::content::field(
                m,
                "wire_bytes_out",
            ))?,
            completeness: match serde::content::field(m, "completeness") {
                serde::Content::Null => 1.0,
                other => serde::Deserialize::from_content(other)?,
            },
        })
    }
}

/// One node-loss (or recovery) event of a fault-tolerant run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultIncident {
    /// The node that was lost.
    pub node: u32,
    /// Coordinator epoch at which the loss was detected.
    pub epoch: u64,
    /// What the transport reported (typed error rendered to text).
    pub reason: String,
    /// How the run recovered: `"reconnected"`, `"reassigned"`,
    /// `"degraded"`, or `"failed"`.
    pub action: String,
    /// Checkpoint + post-checkpoint bytes re-shipped for recovery.
    pub replay_bytes: u64,
}

/// Per-node drain/usage/wire counters of a multi-node SP tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStat {
    /// Input rows routed into the node's owned shards.
    pub drained_records: u64,
    /// Compute charged to the node's keyed pipelines, µs.
    pub usage_us: f64,
    /// Wire bytes the node shipped to other nodes (remote-shard traffic,
    /// from the `batch::layout` accounting).
    pub wire_bytes_out: u64,
}

/// Result of executing a [`crate::deploy::DeploymentSpec`] on a backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Backend that produced the report (`"emulated"` or `"live"`).
    pub backend: String,
    /// Workload name.
    pub workload: String,
    /// Partitioning strategy.
    pub strategy: StrategyKind,
    /// Epochs executed (including warm-up).
    pub epochs: u64,
    /// Aggregate on-time throughput, paper-Mbps (emulated backend).
    pub throughput_mbps: f64,
    /// Aggregate offered network rate, paper-Mbps (emulated backend).
    pub network_mbps: f64,
    /// State/result-stream share of the network rate, paper-Mbps (the
    /// Fig. 3 result stream; emulated backend).
    pub state_mbps: f64,
    /// Aggregate input rate, paper-Mbps.
    pub input_mbps: f64,
    /// Median processing latency, seconds (emulated backend, source 0).
    pub latency_median_s: Option<f64>,
    /// Max processing latency, seconds (emulated backend, source 0).
    pub latency_max_s: Option<f64>,
    /// Records drained to the stream processor.
    pub drained_records: u64,
    /// Drained record bytes (the drain share of the network volume).
    pub drained_bytes: f64,
    /// Partial-state deltas shipped.
    pub state_deltas: u64,
    /// Result rows emitted by the stream processor.
    pub results_emitted: u64,
    /// Order-independent fingerprint of the merged result rows, when the
    /// deployment collected them (`collect_results`).
    pub exactness: Option<ExactnessDigest>,
    /// Per-epoch runtime trace of source 0 (Fig. 8 series).
    pub trace: Vec<EpochTrace>,
    /// Adaptation episodes of source 0 as `(trigger, stable)` epochs.
    pub episodes: Vec<(u64, u64)>,
    /// Final load factors of source 0.
    pub load_factors: Vec<f64>,
    /// Adaptation overhead as a fraction of one core.
    pub overhead_core_frac: f64,
    /// The deployed operator chain, e.g. `W -> F -> G+R`.
    pub deployed_chain: String,
    /// Operators eligible to run on the data sources.
    pub source_ops: usize,
    /// Virtual shards on the SP tier's fixed hash ring (1 = unsharded).
    pub sp_shards: u64,
    /// SP nodes the ring was divided over (1 = single-node SP).
    pub sp_nodes: u64,
    /// Per-shard drain/usage/wire stats of the sharded SP runtime (live
    /// backend; the emulated backend's single SP reports one row).
    pub shard_stats: Vec<ShardStat>,
    /// Per-node drain/usage/wire stats of the SP tier (live backend; the
    /// emulated backend's single SP reports one row).
    pub node_stats: Vec<NodeStat>,
    /// Warning-severity diagnostics from the static plan analysis that ran
    /// at build time (errors refuse the build; see [`crate::plancheck`]).
    pub plan_warnings: Vec<crate::plancheck::Diagnostic>,
    /// Node-loss/recovery events of the run (empty when fault-free).
    pub incidents: Vec<FaultIncident>,
    /// Checkpoint + buffered traffic bytes re-shipped for recovery.
    pub replay_bytes: u64,
    /// Heartbeat pings the coordinator sent while awaiting epoch acks.
    pub heartbeats_sent: u64,
    /// Effective executor worker threads of the session's task runtime
    /// (0 for backends that do not run on it).
    pub rt_workers: u32,
}

impl RunReport {
    /// An empty report skeleton for a backend to fill in.
    pub fn skeleton(backend: &str, workload: String, strategy: StrategyKind) -> RunReport {
        RunReport {
            backend: backend.to_string(),
            workload,
            strategy,
            epochs: 0,
            throughput_mbps: 0.0,
            network_mbps: 0.0,
            state_mbps: 0.0,
            input_mbps: 0.0,
            latency_median_s: None,
            latency_max_s: None,
            drained_records: 0,
            drained_bytes: 0.0,
            state_deltas: 0,
            results_emitted: 0,
            exactness: None,
            trace: Vec::new(),
            episodes: Vec::new(),
            load_factors: Vec::new(),
            overhead_core_frac: 0.0,
            deployed_chain: String::new(),
            source_ops: 0,
            sp_shards: 1,
            sp_nodes: 1,
            shard_stats: Vec::new(),
            node_stats: Vec::new(),
            plan_warnings: Vec::new(),
            incidents: Vec::new(),
            replay_bytes: 0,
            heartbeats_sent: 0,
            rt_workers: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(ts: i64, vals: Vec<Value>) -> Record {
        Record::new(ts, vals)
    }

    #[test]
    fn digest_is_order_independent() {
        let a = vec![
            row(1, vec![Value::U64(1), Value::F64(2.0)]),
            row(2, vec![Value::U64(2), Value::F64(3.0)]),
        ];
        let b: Vec<Record> = a.iter().rev().cloned().collect();
        assert_eq!(ExactnessDigest::of_rows(&a), ExactnessDigest::of_rows(&b));
    }

    #[test]
    fn digest_tolerates_float_reassociation() {
        // Sums accumulated in different orders differ by ulps; the canonical
        // 7-significant-digit form must wash that out.
        let x: f64 = 0.1 + 0.2 + 0.3;
        let y: f64 = 0.3 + 0.2 + 0.1;
        assert_ne!(x.to_bits(), y.to_bits(), "premise: the orders differ");
        let a = vec![row(0, vec![Value::F64(x)])];
        let b = vec![row(0, vec![Value::F64(y)])];
        assert_eq!(ExactnessDigest::of_rows(&a), ExactnessDigest::of_rows(&b));
    }

    #[test]
    fn digest_distinguishes_different_results() {
        let a = vec![row(1, vec![Value::U64(1)])];
        let b = vec![row(1, vec![Value::U64(2)])];
        assert_ne!(ExactnessDigest::of_rows(&a), ExactnessDigest::of_rows(&b));
    }

    #[test]
    fn pre_fault_tolerance_shard_stats_deserialize_complete() {
        // JSON written before the fault-tolerance fields existed must load
        // with completeness 1.0 and empty incident accounting.
        let old = r#"{"drained_records":5,"usage_us":1.0,"wire_bytes_out":64}"#;
        let s: ShardStat = serde_json::from_str(old).unwrap();
        assert!((s.completeness - 1.0).abs() < f64::EPSILON);
        let mut r = RunReport::skeleton("live", "S2SProbe".into(), StrategyKind::Jarvis);
        r.incidents.push(FaultIncident {
            node: 1,
            epoch: 4,
            reason: "peer closed the connection".into(),
            action: "reassigned".into(),
            replay_bytes: 1024,
        });
        r.replay_bytes = 1024;
        r.heartbeats_sent = 3;
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.incidents, r.incidents);
        assert_eq!(back.replay_bytes, 1024);
        assert_eq!(back.heartbeats_sent, 3);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = RunReport::skeleton("emulated", "S2SProbe".into(), StrategyKind::Jarvis);
        r.throughput_mbps = 12.5;
        r.load_factors = vec![1.0, 0.5];
        r.exactness = Some(ExactnessDigest {
            rows: 3,
            digest: "abc".into(),
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.throughput_mbps, r.throughput_mbps);
        assert_eq!(back.load_factors, r.load_factors);
        assert_eq!(back.exactness, r.exactness);
        assert_eq!(back.strategy, StrategyKind::Jarvis);
    }
}
