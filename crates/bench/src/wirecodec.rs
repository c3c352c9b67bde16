//! Encoded bytes per row of the batch wire codec, for the perf trajectory.
//!
//! Two boundary parts, the way a live source task produces them — a 256-row
//! chunk split over a 4-shard [`Ring`], every part encoded as a
//! `NetPayload::ShardBatch`:
//!
//! - **S2S** — the S2SProbe stateless prefix over one Pingmesh epoch
//!   (generator seed 17): six integer fields and a timestamp per row, the
//!   shape content-sized integer pages exist for.
//! - **LogAnalytics** — the structured telemetry stream (generator seed 17)
//!   over an established link: persistent-dictionary delta pages plus code
//!   pages. The chunk before the measured one makes first contact, so the
//!   measured chunk is the steady state.
//!
//! Beside each encoded size stands the size the fixed-width format this
//! codec replaced (8 B a timestamp and integer, 4 B a code) would have
//! written for the same parts, computed arithmetically from the batches.
//! Both are deterministic byte counts and are gated *exactly* against the
//! committed baseline; the encode/decode timings are context, not gated.
//!
//! This runner produces the `wire_codec` series in `BENCH_throughput.json`.

use std::time::Instant;

use bytes::Bytes;
use jarvis_core::engine::netwire::{decode_shard_payload_with, encode_shard_payload_with};
use jarvis_core::engine::NetPayload;
use serde::{Deserialize, Serialize};
use streamkit::batch::{layout, Batch, Column, DictRegistry, DictVersions};
use streamkit::ops::AggRole;
use streamkit::physical::{build_pipeline, CostProfile};
use streamkit::schema::SchemaRef;
use streamkit::shard::Ring;
use telemetry::loganalytics::{structured_log_schema, LogConfig, LogGenerator};
use telemetry::pingmesh::{PingmeshConfig, PingmeshGenerator};

use crate::measure::best_secs;

/// Generator seed of both parts.
const SEED: u64 = 17;

/// Virtual shards on the ring both parts are split over.
const RING: usize = 4;

/// Rows per chunk, as `live::session::Worker` drains them.
const CHUNK_ROWS: usize = 256;

/// One measured boundary chunk.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct WireCodecPart {
    /// What was encoded.
    pub part: String,
    /// Rows in the chunk.
    pub rows: u64,
    /// `ShardBatch` frames the ring split produced.
    pub frames: u64,
    /// Bytes of those frames as encoded (25-byte envelopes included).
    pub encoded_bytes: u64,
    /// Bytes the fixed-width format would have written for the same frames.
    pub fixed_width_bytes: u64,
    /// `encoded_bytes / rows`.
    pub encoded_bytes_per_row: f64,
    /// Encode cost, ns/row (best over iterations; not gated).
    pub encode_ns_per_row: f64,
    /// Decode cost, ns/row (best over iterations; not gated).
    pub decode_ns_per_row: f64,
}

/// Result of the wire-codec measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireCodecResult {
    /// The S2SProbe boundary chunk.
    pub s2s: WireCodecPart,
    /// The LogAnalytics structured chunk on an established link.
    pub log: WireCodecPart,
}

impl WireCodecResult {
    /// Failures against the committed `baseline`: the byte counts are
    /// deterministic, so any difference is a format change that must be
    /// re-committed on purpose — and content-sized pages must beat the
    /// fixed-width format whatever the baseline says.
    pub fn failures_vs(&self, baseline: Option<&WireCodecResult>) -> Vec<String> {
        let mut out = Vec::new();
        let pairs = [
            (&self.s2s, baseline.map(|b| &b.s2s)),
            (&self.log, baseline.map(|b| &b.log)),
        ];
        for (part, committed) in pairs {
            if part.encoded_bytes >= part.fixed_width_bytes {
                out.push(format!(
                    "wire_codec {}: {} B encoded must beat {} B fixed-width",
                    part.part, part.encoded_bytes, part.fixed_width_bytes
                ));
            }
            if let Some(c) = committed {
                let measured = (part.rows, part.encoded_bytes, part.fixed_width_bytes);
                let expected = (c.rows, c.encoded_bytes, c.fixed_width_bytes);
                if measured != expected {
                    out.push(format!(
                        "wire_codec {}: (rows, encoded, fixed-width) = {measured:?} differs \
                         from the committed {expected:?}",
                        part.part
                    ));
                }
            }
        }
        out
    }
}

/// Bytes of `batch` under the fixed-width format: every timestamp and
/// integer 8 B, every code 4 B, everything else as the codec still writes
/// it. `link` is the sender's dictionary state *before* the batch ships.
fn fixed_width_body_len(batch: &Batch, link: &DictVersions) -> usize {
    let rows = batch.len();
    let mut len = 8 + 8 * rows;
    for col in &batch.columns {
        let (col, validity) = match col {
            Column::Opt { values, .. } => (values.as_ref(), rows),
            dense => (dense, 0),
        };
        len += 1 + validity;
        len += match col {
            Column::Bool(_) => rows,
            Column::I64(_) | Column::U64(_) | Column::F64(_) => 8 * rows,
            Column::Str { offsets, .. } => 1 + 2 * rows + (offsets[rows] - offsets[0]) as usize,
            Column::Dict { dict, .. } if dict.id() != 0 => {
                let seen = link.get(&dict.id()).copied().unwrap_or(0);
                1 + layout::dict_delta_bytes(dict, seen) + 4 * rows
            }
            Column::Dict { dict, .. } => 1 + layout::dict_page_bytes(dict) + 4 * rows,
            Column::Opt { .. } => unreachable!("validity unwrapped above"),
        };
    }
    len
}

/// What the S2SProbe stateless prefix passes to its keyed boundary for one
/// epoch of `batch`, the group-key columns there, and the input schemas of
/// the suffix stages (the decode side of the wire).
fn s2s_boundary(batch: Batch) -> (Vec<Batch>, Vec<usize>, Vec<SchemaRef>) {
    let plan = telemetry::queries::s2s_probe();
    let (boundary, keys) = plan.shard_boundary().expect("S2SProbe has a G+R");
    let mut prefix =
        build_pipeline(&plan, &CostProfile::default(), AggRole::Final).expect("valid plan");
    prefix.truncate(boundary);
    let mut cur = vec![batch];
    for op in &mut prefix {
        let mut next = Vec::new();
        for b in cur {
            op.process_batch(b, &mut next);
        }
        cur = next;
    }
    let schemas = plan.edge_schemas().expect("valid plan")[boundary..].to_vec();
    (cur, keys, schemas)
}

/// Envelope bytes ahead of every `ShardBatch` body.
const ENVELOPE_LEN: usize = 25;

/// The ring split of `chunk`, each part a `ShardBatch` payload.
fn split(ring: &Ring, chunk: &Batch) -> Vec<NetPayload> {
    ring.split_batch(0, chunk.clone())
        .into_iter()
        .map(|(shard, batch)| NetPayload::ShardBatch {
            shard: shard as u32,
            epoch: 0,
            source: 0,
            rel: 0,
            batch,
        })
        .collect()
}

fn encode_all(parts: &[NetPayload], link: &mut DictVersions) -> Vec<Bytes> {
    parts
        .iter()
        .map(|p| encode_shard_payload_with(p, link))
        .collect()
}

fn decode_all(frames: &[Bytes], schemas: &[SchemaRef], registry: &mut DictRegistry) {
    for frame in frames {
        std::hint::black_box(
            decode_shard_payload_with(frame.clone(), schemas, registry)
                .expect("encoded parts decode on the receiving mirror"),
        );
    }
}

/// Measures one chunk: `warm` (if any) ships first over the same link.
fn measure_part(
    part: &str,
    ring: &Ring,
    schemas: &[SchemaRef],
    warm: Option<&Batch>,
    chunk: &Batch,
    iters: u32,
) -> WireCodecPart {
    let mut established = DictVersions::new();
    let warm_frames = warm.map_or_else(Vec::new, |w| encode_all(&split(ring, w), &mut established));
    let parts = split(ring, chunk);
    // One pass over the link as each part finds it: the frames, and beside
    // them what the fixed-width format would have written.
    let mut link = established.clone();
    let mut fixed = 0;
    let frames: Vec<Bytes> = parts
        .iter()
        .map(|p| {
            let NetPayload::ShardBatch { batch, .. } = p else {
                unreachable!("split makes row payloads only");
            };
            fixed += ENVELOPE_LEN + fixed_width_body_len(batch, &link);
            encode_shard_payload_with(p, &mut link)
        })
        .collect();
    let encoded: usize = frames.iter().map(Bytes::len).sum();

    let encode = best_secs(
        (0..iters.max(1))
            .map(|_| {
                let mut link = established.clone();
                let start = Instant::now();
                std::hint::black_box(encode_all(&parts, &mut link));
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let decode = best_secs(
        (0..iters.max(1))
            .map(|_| {
                let mut registry = DictRegistry::new();
                decode_all(&warm_frames, schemas, &mut registry);
                let start = Instant::now();
                decode_all(&frames, schemas, &mut registry);
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let rows = chunk.len() as f64;
    WireCodecPart {
        part: part.to_string(),
        rows: chunk.len() as u64,
        frames: frames.len() as u64,
        encoded_bytes: encoded as u64,
        fixed_width_bytes: fixed as u64,
        encoded_bytes_per_row: encoded as f64 / rows,
        encode_ns_per_row: encode * 1e9 / rows,
        decode_ns_per_row: decode * 1e9 / rows,
    }
}

/// Measures the `wire_codec` series. `iters` timed iterations per arm.
pub fn bench_wire_codec(iters: u32) -> WireCodecResult {
    // S2S: the stateless prefix's output over one generated epoch.
    let mut gen = PingmeshGenerator::new(PingmeshConfig {
        seed: SEED,
        ..Default::default()
    });
    let (cur, keys, schemas) = s2s_boundary(gen.generate_epoch_batch(0, 1.0));
    let boundary = cur.first().expect("the prefix passes rows");
    let s2s_chunk = boundary
        .chunks(CHUNK_ROWS)
        .next()
        .expect("a non-empty boundary batch");
    let s2s = measure_part(
        "S2SProbe boundary chunk, 4-shard ring",
        &Ring::new(RING, keys),
        &schemas,
        None,
        &s2s_chunk,
        iters,
    );

    // LogAnalytics: the second chunk of a structured epoch, after the first
    // has carried the dictionaries across.
    let mut gen = LogGenerator::new(LogConfig {
        seed: SEED,
        ..Default::default()
    });
    let epoch = gen.generate_structured_epoch_batch(0, 1.0);
    let mut chunks = epoch.chunks(CHUNK_ROWS);
    let warm = chunks.next().expect("a non-empty structured epoch");
    let log_chunk = chunks.next().expect("more than one chunk an epoch");
    let log = measure_part(
        "LogAnalytics structured chunk, 4-shard ring, established link",
        &Ring::new(RING, vec![0, 1]),
        &[structured_log_schema()],
        Some(&warm),
        &log_chunk,
        iters,
    );
    WireCodecResult { s2s, log }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_counts_repeat_and_beat_the_fixed_width_format() {
        let a = bench_wire_codec(1);
        let b = bench_wire_codec(1);
        for (x, y) in [(&a.s2s, &b.s2s), (&a.log, &b.log)] {
            assert_eq!(x.rows, CHUNK_ROWS as u64);
            assert_eq!(
                (x.encoded_bytes, x.fixed_width_bytes),
                (y.encoded_bytes, y.fixed_width_bytes),
                "deterministic byte counts"
            );
        }
        assert!(a.failures_vs(Some(&b)).is_empty());
        let mut moved = b.clone();
        moved.s2s.encoded_bytes += 1;
        assert_eq!(a.failures_vs(Some(&moved)).len(), 1);
    }
}
