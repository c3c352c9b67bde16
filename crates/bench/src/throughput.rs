//! The perf-trajectory artifact (`BENCH_throughput.json`) and its
//! regression gate.

use serde::{Deserialize, Serialize};

/// The perf-trajectory artifact (`BENCH_throughput.json`): one series per
/// optimized hot path. CI re-measures and fails loudly when a series'
/// speedup regresses more than 20% against the committed numbers (speedup
/// ratios, not absolute rates, so the gate is machine-independent). The
/// PR-2 `row_vs_batch` series retired together with the row shim it
/// measured; `tests/golden_fingerprints.rs` now pins those semantics. The
/// `shard_scaling` / `node_scaling` series retired with the one-router
/// critical path they timed; the live tier's end-to-end scaling number is
/// the repo benchmark's `s2s_allsp_2node`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Group aggregation by key shape: str vs dict keys (PR 3), and the
    /// high-cardinality wide-int shape of the `s2s` boundary (PR 15).
    pub group_agg: crate::groupagg::GroupAggResult,
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
            "net_transport",
            self.net_transport.relative_throughput,
            baseline.net_transport.relative_throughput,
        );
        // The dict-epoch throughput half gates like every other speedup
        // series (a ratio, machine-independent).
        if let (Some(de), Some(b)) = (&self.dict_epoch, &baseline.dict_epoch) {
            check("dict_epoch", de.speedup, b.speedup);
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
        // whatever the baseline says, and its wire bytes must equal the
        // committed ones exactly.
        if let Some(de) = &self.dict_epoch {
            out.extend(de.contract_failures());
            if let Some(b) = &baseline.dict_epoch {
                out.extend(de.wire_failures_vs(b));
            }
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
