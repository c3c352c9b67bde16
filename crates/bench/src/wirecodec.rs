//! Encoded bytes per row of the batch wire codec, for the perf trajectory.
//!
//! Two boundary parts, the way a live source task produces them — a chunk
//! of [`CHUNK`] rows (the live session's own chunk) split over a
//! 4-shard [`Ring`], every part encoded as a `NetPayload::ShardBatch` — and
//! one state part:
//!
//! - **S2S** — the S2SProbe stateless prefix over one Pingmesh epoch
//!   (generator seed 17): six integer fields and a timestamp per row, the
//!   shape content-sized integer pages exist for.
//! - **LogAnalytics** — the structured telemetry stream (generator seed 17)
//!   over an established link: persistent-dictionary delta pages plus code
//!   pages. The chunk before the measured one makes first contact, so the
//!   measured chunk is the steady state.
//! - **S2S state** — the partial state one Jarvis source builds over one
//!   Pingmesh epoch (generator seed 17), split over the same ring and
//!   encoded as `NetPayload::ShardState` payloads: integer keys and the
//!   `Avg` / `Max` / `Min` components of an integer `rtt`. Beside encode
//!   and decode, this part times merging the decoded parts into final-role
//!   operators, one per shard, the way a shard host folds shipped state.
//!
//! Beside each encoded size stands the size the fixed-width format this
//! codec replaced (8 B a timestamp, integer, key and state component, 4 B a
//! code) would have written for the same parts, computed arithmetically
//! from the batches and entries.
//! Both are deterministic byte counts and are gated *exactly* against the
//! committed baseline; the encode/decode timings are context, not gated.
//!
//! This runner produces the `wire_codec` series in `BENCH_throughput.json`.

use std::time::Instant;

use bytes::Bytes;
use jarvis_core::engine::netwire::{decode_shard_payload_with, encode_shard_payload_with};
use jarvis_core::engine::NetPayload;
use jarvis_core::live::session::CHUNK;
use serde::{Deserialize, Serialize};
use streamkit::agg::AggState;
use streamkit::batch::{layout, Batch, Column, DictRegistry, DictVersions};
use streamkit::ops::{AggRole, GroupPartialEntry, Operator, StatePartial};
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

/// One measured boundary chunk.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct WireCodecPart {
    /// What was encoded.
    pub part: String,
    /// Rows in the chunk (group entries, for the state part).
    pub rows: u64,
    /// Frames the ring split produced.
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
    /// Cost of merging the decoded state into fresh final-role operators,
    /// ns/entry (state part only; best over iterations; not gated).
    pub merge_ns_per_row: Option<f64>,
}

/// Result of the wire-codec measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireCodecResult {
    /// The S2SProbe boundary chunk.
    pub s2s: WireCodecPart,
    /// The LogAnalytics structured chunk on an established link.
    pub log: WireCodecPart,
    /// One S2S source's epoch partial.
    pub state: WireCodecPart,
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
            (&self.state, baseline.map(|b| &b.state)),
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

/// Bytes of a one-run state body of non-null integer keys under the
/// fixed-width format: the run's shape and batch header, then a presence
/// byte per column and 8 B a window start, key value and state component
/// (sketches, which follow the batch, are not counted). Key columns count
/// by the key's arity, not its encoded length.
fn fixed_width_state_len(entries: &[GroupPartialEntry]) -> usize {
    let (rows, first) = (entries.len(), &entries[0]);
    let components: usize = first
        .states
        .iter()
        .map(|s| match s {
            AggState::Avg { .. } => 2,
            AggState::Quantile { .. } => 0,
            _ => 1,
        })
        .sum();
    let arity = first.key.arity();
    let columns = arity + components;
    2 + arity + 2 + first.states.len() + 8 + 8 * rows + columns * (1 + 8 * rows)
}

/// Bytes `payload`'s body would take under the fixed-width format, with
/// `link` the sender's dictionary state before it ships.
fn fixed_width_len(payload: &NetPayload, link: &DictVersions) -> usize {
    match payload {
        NetPayload::ShardBatch { batch, .. } => fixed_width_body_len(batch, link),
        NetPayload::ShardState {
            delta: StatePartial::Group(entries),
            ..
        } => fixed_width_state_len(entries),
        _ => unreachable!("the ring split makes shard payloads only"),
    }
}

/// Runs `ops` in order over `batch`, returning what the last passes on.
fn run_ops(ops: &mut [Box<dyn Operator>], batch: Batch) -> Vec<Batch> {
    let mut cur = vec![batch];
    for op in ops {
        let mut next = Vec::new();
        for b in cur {
            op.process_batch(b, &mut next);
        }
        cur = next;
    }
    cur
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
    let cur = run_ops(&mut prefix, batch);
    let schemas = plan.edge_schemas().expect("valid plan")[boundary..].to_vec();
    (cur, keys, schemas)
}

/// The partial state a Jarvis source's S2SProbe operators build over one
/// epoch of `batch`.
fn s2s_partial(batch: Batch) -> StatePartial {
    let plan = telemetry::queries::s2s_probe();
    let (boundary, _) = plan.shard_boundary().expect("S2SProbe has a G+R");
    let mut ops =
        build_pipeline(&plan, &CostProfile::default(), AggRole::Partial).expect("valid plan");
    ops.truncate(boundary + 1);
    run_ops(&mut ops, batch);
    ops[boundary]
        .take_state_delta()
        .expect("the partial G+R holds state")
}

/// Envelope bytes ahead of every shard payload's body.
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

fn decode_all(
    frames: &[Bytes],
    schemas: &[SchemaRef],
    registry: &mut DictRegistry,
) -> Vec<NetPayload> {
    frames
        .iter()
        .map(|frame| {
            decode_shard_payload_with(frame.clone(), schemas, registry)
                .expect("encoded parts decode on the receiving mirror")
        })
        .collect()
}

/// A fresh final-role S2SProbe G+R, the operator a shard host merges a
/// source's shipped state into.
fn s2s_final_group() -> Box<dyn Operator> {
    let plan = telemetry::queries::s2s_probe();
    let (boundary, _) = plan.shard_boundary().expect("S2SProbe has a G+R");
    let mut ops =
        build_pipeline(&plan, &CostProfile::default(), AggRole::Final).expect("valid plan");
    ops.swap_remove(boundary)
}

/// Seconds to merge every decoded `ShardState` of `frames` into a fresh
/// operator of its own, the decode left out of the timing.
fn merge_secs(frames: &[Bytes], schemas: &[SchemaRef]) -> f64 {
    let decoded = decode_all(frames, schemas, &mut DictRegistry::new());
    let mut ops: Vec<Box<dyn Operator>> = decoded.iter().map(|_| s2s_final_group()).collect();
    let start = Instant::now();
    for (payload, op) in decoded.into_iter().zip(&mut ops) {
        let NetPayload::ShardState { delta, .. } = payload else {
            unreachable!("state parts decode to state payloads");
        };
        op.merge_state(delta);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(ops);
    secs
}

/// Measures the `parts` of one chunk of `rows` rows (or entries): `warm`
/// ships first over the same link.
fn measure_part(
    part: &str,
    schemas: &[SchemaRef],
    warm: &[NetPayload],
    parts: &[NetPayload],
    rows: usize,
    iters: u32,
) -> WireCodecPart {
    let mut established = DictVersions::new();
    let warm_frames = encode_all(warm, &mut established);
    // One pass over the link as each part finds it: the frames, and beside
    // them what the fixed-width format would have written.
    let mut link = established.clone();
    let mut fixed = 0;
    let frames: Vec<Bytes> = parts
        .iter()
        .map(|p| {
            fixed += ENVELOPE_LEN + fixed_width_len(p, &link);
            encode_shard_payload_with(p, &mut link)
        })
        .collect();
    let encoded: usize = frames.iter().map(Bytes::len).sum();

    let encode = best_secs(
        (0..iters.max(1))
            .map(|_| {
                let mut link = established.clone();
                let start = Instant::now();
                std::hint::black_box(encode_all(parts, &mut link));
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
                std::hint::black_box(decode_all(&frames, schemas, &mut registry));
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let merges_state = parts
        .iter()
        .all(|p| matches!(p, NetPayload::ShardState { .. }));
    let merge = merges_state.then(|| {
        best_secs(
            (0..iters.max(1))
                .map(|_| merge_secs(&frames, schemas))
                .collect(),
        )
    });
    WireCodecPart {
        part: part.to_string(),
        rows: rows as u64,
        frames: frames.len() as u64,
        encoded_bytes: encoded as u64,
        fixed_width_bytes: fixed as u64,
        encoded_bytes_per_row: encoded as f64 / rows as f64,
        encode_ns_per_row: encode * 1e9 / rows as f64,
        decode_ns_per_row: decode * 1e9 / rows as f64,
        merge_ns_per_row: merge.map(|secs| secs * 1e9 / rows as f64),
    }
}

/// Measures the `wire_codec` series. `iters` timed iterations per arm.
pub fn bench_wire_codec(iters: u32) -> WireCodecResult {
    // S2S: the stateless prefix's output over one generated epoch.
    let mut gen = PingmeshGenerator::new(PingmeshConfig {
        seed: SEED,
        ..Default::default()
    });
    let epoch = gen.generate_epoch_batch(0, 1.0);
    let (cur, keys, schemas) = s2s_boundary(epoch.clone());
    let ring = Ring::new(RING, keys);
    let boundary = cur.first().expect("the prefix passes rows");
    let s2s_chunk = boundary
        .chunks(CHUNK)
        .next()
        .expect("a non-empty boundary batch");
    let s2s = measure_part(
        "S2SProbe boundary chunk, 4-shard ring",
        &schemas,
        &[],
        &split(&ring, &s2s_chunk),
        s2s_chunk.len(),
        iters,
    );

    // S2S state: one source's partial over the same epoch, split by key
    // ownership over the same ring.
    let partial = s2s_partial(epoch);
    let entries = partial.entry_count();
    let parts: Vec<NetPayload> = ring
        .split_state(partial)
        .into_iter()
        .map(|(shard, delta)| NetPayload::ShardState {
            shard: shard as u32,
            epoch: 0,
            source: 0,
            rel: 0,
            delta,
        })
        .collect();
    let state = measure_part(
        "S2SProbe source partial, 4-shard ring",
        &schemas,
        &[],
        &parts,
        entries,
        iters,
    );

    // LogAnalytics: the second chunk of a structured epoch, after the first
    // has carried the dictionaries across.
    let mut gen = LogGenerator::new(LogConfig {
        seed: SEED,
        ..Default::default()
    });
    let epoch = gen.generate_structured_epoch_batch(0, 1.0);
    let mut chunks = epoch.chunks(CHUNK);
    let warm = chunks.next().expect("a non-empty structured epoch");
    let log_chunk = chunks.next().expect("more than one chunk an epoch");
    let ring = Ring::new(RING, vec![0, 1]);
    let log = measure_part(
        "LogAnalytics structured chunk, 4-shard ring, established link",
        &[structured_log_schema()],
        &split(&ring, &warm),
        &split(&ring, &log_chunk),
        log_chunk.len(),
        iters,
    );
    WireCodecResult { s2s, log, state }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamkit::ops::GroupKey;

    #[test]
    fn byte_counts_repeat_and_beat_the_fixed_width_format() {
        let a = bench_wire_codec(1);
        let b = bench_wire_codec(1);
        assert_eq!([a.s2s.rows, a.log.rows], [CHUNK as u64; 2]);
        for (x, y) in [(&a.s2s, &b.s2s), (&a.log, &b.log), (&a.state, &b.state)] {
            assert_eq!(
                (x.encoded_bytes, x.fixed_width_bytes),
                (y.encoded_bytes, y.fixed_width_bytes),
                "deterministic byte counts"
            );
        }
        assert!(a.failures_vs(Some(&b)).is_empty());
        let mut moved = b.clone();
        moved.s2s.encoded_bytes += 1;
        moved.state.fixed_width_bytes += 1;
        assert_eq!(a.failures_vs(Some(&moved)).len(), 2);
    }

    #[test]
    fn the_fixed_width_state_figure_counts_8_bytes_a_component() {
        // Two entries of key arity 2 and `Avg` + `Max`: shape 2 + 2 + 2 + 2,
        // batch header 8, window starts 2 × 8, then five columns (two keys,
        // `Avg`'s sum and count, `Max`) of a presence byte and 2 × 8 B.
        let entry = GroupPartialEntry {
            window_start: 0,
            key: GroupKey::from_values(&vec![streamkit::value::Value::U64(1); 2]),
            states: vec![AggState::Avg { sum: 1.0, count: 1 }, AggState::Max(1.0)],
        };
        let len = fixed_width_state_len(&[entry.clone(), entry]);
        assert_eq!(len, 8 + 8 + 16 + 5 * 17);
    }
}
