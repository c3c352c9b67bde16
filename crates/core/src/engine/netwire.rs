//! Binary wire codec for the [`NetPayload`] shard variants.
//!
//! A multi-node SP ships remote-shard traffic between nodes as bytes, not
//! in-process values: a 25-byte little-endian envelope (tag, shard, epoch,
//! source, stage, body length) followed, in the same buffer, by the batch
//! wire format ([`streamkit::encode`] — content-sized integer pages) for row
//! payloads or the group-state format ([`encode_group_state`]) for
//! [`StatePartial`] splits. A state body is columnar too: runs of entries
//! that share a shape, each one batch in the same wire format (window
//! starts as timestamps, keys and state components as typed columns).
//! A float page of integers ships as an integer page and any other as raw
//! bits, so non-finite accumulators like an untouched `Min` at `+inf`
//! survive the hop bit for bit. State bodies never depend on the link:
//! their string keys ship self-contained dictionary pages. Decoding
//! needs the suffix edge schemas (schemas are fixed per query edge, as
//! everywhere else on the wire) — `schemas[rel]` is the input schema of
//! suffix stage `rel`, with one extra entry for fully-processed result rows
//! (`rel == schemas.len() - 1`).
//!
//! Note the codec is a *transport*: what it ships is what `Worker::node_wire`
//! and the socket counters report (`sp_wire_bytes_per_row`), while bandwidth
//! *accounting* stays on [`NetPayload::wire_bytes`] (the `batch::layout`
//! single source of truth, fixed schema widths), exactly as the source → SP
//! uplink charges `Batch::wire_size` rather than its own envelope.
//!
//! [`encode_group_state`]: streamkit::encode::encode_group_state

use bytes::{Buf, BufMut, Bytes, BytesMut};
use streamkit::batch::{DictRegistry, DictVersions};
use streamkit::encode::{
    decode_batch, decode_batch_with, decode_group_state, encode_batch_into,
    encode_group_state_into, ships_dict_deltas,
};
use streamkit::error::Error;
use streamkit::ops::StatePartial;
use streamkit::schema::SchemaRef;

use crate::engine::NetPayload;

/// Bytes of the envelope ahead of the body.
const ENVELOPE_LEN: usize = 25;
/// Envelope tag for [`NetPayload::ShardBatch`].
const TAG_SHARD_BATCH: u8 = 2;
/// Envelope tag for [`NetPayload::ShardState`].
const TAG_SHARD_STATE: u8 = 3;

/// Encodes a shard payload ([`NetPayload::ShardBatch`] /
/// [`NetPayload::ShardState`]) into its inter-node wire form.
///
/// # Panics
///
/// On the point-to-point uplink variants (`Records` / `StateDelta`), which
/// never cross SP nodes and have no shard envelope.
pub fn encode_shard_payload(payload: &NetPayload) -> Bytes {
    encode_shard_payload_impl(payload, None)
}

/// Delta-aware variant of [`encode_shard_payload`]: dictionary pages of
/// persistent-dict columns inside a `ShardBatch` body ship as deltas against
/// `link` — the per-peer map of dictionary versions already on the wire
/// (first contact or a post-recovery reset ships the full history). The
/// self-contained [`encode_shard_payload`] stays the checkpoint/replay form,
/// because the recovery coordinator re-ships bodies verbatim to receivers
/// whose dictionary state it cannot see.
pub fn encode_shard_payload_with(payload: &NetPayload, link: &mut DictVersions) -> Bytes {
    encode_shard_payload_impl(payload, Some(link))
}

/// True when [`encode_shard_payload_with`] depends on the link, i.e. when
/// `payload` carries a persistent-dictionary column; for every other payload
/// it yields exactly the bytes of [`encode_shard_payload`].
pub(crate) fn link_dependent(payload: &NetPayload) -> bool {
    matches!(payload, NetPayload::ShardBatch { batch, .. } if ships_dict_deltas(batch))
}

/// Starts a payload buffer with its envelope; the body length is patched in
/// by [`encode_shard_payload_impl`] once the body has been appended.
fn envelope(tag: u8, shard: u32, epoch: u64, source: u32, rel: u32) -> BytesMut {
    let mut buf = BytesMut::with_capacity(ENVELOPE_LEN);
    buf.put_u8(tag);
    buf.put_u32_le(shard);
    buf.put_u64_le(epoch);
    buf.put_u32_le(source);
    buf.put_u32_le(rel);
    buf.put_u32_le(0);
    buf
}

fn encode_shard_payload_impl(payload: &NetPayload, link: Option<&mut DictVersions>) -> Bytes {
    // Envelope and body share one buffer, which the body encoder grows once.
    let mut buf = match payload {
        NetPayload::ShardBatch {
            shard,
            epoch,
            source,
            rel,
            batch,
        } => {
            let mut buf = envelope(TAG_SHARD_BATCH, *shard, *epoch, *source, *rel);
            encode_batch_into(&mut buf, batch, link);
            buf
        }
        NetPayload::ShardState {
            shard,
            epoch,
            source,
            rel,
            delta: StatePartial::Group(entries),
        } => {
            let mut buf = envelope(TAG_SHARD_STATE, *shard, *epoch, *source, *rel);
            encode_group_state_into(&mut buf, entries);
            buf
        }
        NetPayload::Records { .. } | NetPayload::StateDelta { .. } => {
            panic!("only shard variants cross SP nodes")
        }
    };
    let body_len = (buf.len() - ENVELOPE_LEN) as u32;
    buf[ENVELOPE_LEN - 4..ENVELOPE_LEN].copy_from_slice(&body_len.to_le_bytes());
    buf.freeze()
}

/// The schema-free header of a shard-payload envelope.
///
/// Full decoding ([`decode_shard_payload`]) needs the suffix edge schemas,
/// which only an executing node holds. The recovery coordinator, though,
/// only needs to *address* payloads — which shard, which pipeline slot —
/// while treating the body as opaque bytes to re-ship verbatim. This struct
/// is that addressing view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEnvelope {
    /// True for a `ShardState` payload, false for a `ShardBatch`.
    pub is_state: bool,
    /// Ring-absolute target shard.
    pub shard: u32,
    /// Epoch the payload belongs to.
    pub epoch: u64,
    /// Originating source id.
    pub source: u32,
    /// Suffix pipeline stage (relative operator index).
    pub rel: u32,
}

/// Parses just the 25-byte envelope header of a shard payload, without
/// schemas and without touching the body. Returns `None` on anything that
/// is not a well-formed shard envelope.
pub fn peek_envelope(buf: &[u8]) -> Option<ShardEnvelope> {
    if buf.len() < ENVELOPE_LEN {
        return None;
    }
    let tag = buf[0];
    if tag != TAG_SHARD_BATCH && tag != TAG_SHARD_STATE {
        return None;
    }
    let len = u32::from_le_bytes([buf[21], buf[22], buf[23], buf[24]]) as usize;
    if buf.len() != ENVELOPE_LEN + len {
        return None;
    }
    Some(ShardEnvelope {
        is_state: tag == TAG_SHARD_STATE,
        shard: u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]),
        epoch: u64::from_le_bytes([
            buf[5], buf[6], buf[7], buf[8], buf[9], buf[10], buf[11], buf[12],
        ]),
        source: u32::from_le_bytes([buf[13], buf[14], buf[15], buf[16]]),
        rel: u32::from_le_bytes([buf[17], buf[18], buf[19], buf[20]]),
    })
}

/// Decodes an inter-node payload produced by [`encode_shard_payload`].
/// `schemas[rel]` supplies the batch schema at each suffix entry stage.
/// Delta dictionary pages are a typed error on this path — peers that speak
/// deltas decode through [`decode_shard_payload_with`].
pub fn decode_shard_payload(buf: Bytes, schemas: &[SchemaRef]) -> Result<NetPayload, Error> {
    decode_shard_payload_impl(buf, schemas, None)
}

/// Delta-aware variant of [`decode_shard_payload`]: dictionary-delta pages
/// inside a `ShardBatch` body resolve against (and extend) `registry`, the
/// receiver's per-peer mirror of the sender's persistent dictionaries.
pub fn decode_shard_payload_with(
    buf: Bytes,
    schemas: &[SchemaRef],
    registry: &mut DictRegistry,
) -> Result<NetPayload, Error> {
    decode_shard_payload_impl(buf, schemas, Some(registry))
}

fn decode_shard_payload_impl(
    mut buf: Bytes,
    schemas: &[SchemaRef],
    registry: Option<&mut DictRegistry>,
) -> Result<NetPayload, Error> {
    if buf.remaining() < ENVELOPE_LEN {
        return Err(Error::Decode(format!(
            "shard payload underrun: {} bytes",
            buf.remaining()
        )));
    }
    let tag = buf.get_u8();
    let shard = buf.get_u32_le();
    let epoch = buf.get_u64_le();
    let source = buf.get_u32_le();
    let rel = buf.get_u32_le();
    let len = buf.get_u32_le() as usize;
    if buf.remaining() != len {
        return Err(Error::Decode(format!(
            "shard payload length {len} != remaining {}",
            buf.remaining()
        )));
    }
    match tag {
        TAG_SHARD_BATCH => {
            let schema = schemas
                .get(rel as usize)
                .ok_or_else(|| Error::Decode(format!("no schema for suffix stage {rel}")))?
                .clone();
            let batch = match registry {
                Some(registry) => decode_batch_with(schema, buf, registry)?,
                None => decode_batch(schema, buf)?,
            };
            Ok(NetPayload::ShardBatch {
                shard,
                epoch,
                source,
                rel,
                batch,
            })
        }
        TAG_SHARD_STATE => {
            let entries = decode_group_state(buf)?;
            Ok(NetPayload::ShardState {
                shard,
                epoch,
                source,
                rel,
                delta: StatePartial::Group(entries),
            })
        }
        other => Err(Error::Decode(format!("unknown shard payload tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamkit::agg::AggState;
    use streamkit::batch::Batch;
    use streamkit::ops::{GroupKey, GroupPartialEntry};
    use streamkit::record::Record;
    use streamkit::schema::{DataType, Field, Schema};
    use streamkit::value::Value;

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::U64),
        ])
    }

    fn batch() -> Batch {
        let recs = vec![
            Record::new(1, vec![Value::str("a"), Value::U64(7)]),
            Record::new(2, vec![Value::Null, Value::U64(9)]),
        ];
        Batch::from_records(schema(), &recs).unwrap()
    }

    #[test]
    fn shard_batch_round_trips() {
        let p = NetPayload::ShardBatch {
            shard: 3,
            epoch: 12,
            source: 1,
            rel: 0,
            batch: batch(),
        };
        let wire = encode_shard_payload(&p);
        let back = decode_shard_payload(wire, &[schema()]).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn shard_state_round_trips() {
        let p = NetPayload::ShardState {
            shard: 0,
            epoch: 4,
            source: 0,
            rel: 0,
            delta: StatePartial::Group(vec![GroupPartialEntry {
                window_start: 10_000_000,
                key: GroupKey::from_values(&[Value::str("t0"), Value::I64(-3)]),
                states: vec![AggState::Count(5), AggState::Sum(1.25)],
            }]),
        };
        let wire = encode_shard_payload(&p);
        let back = decode_shard_payload(wire, &[schema()]).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn non_finite_state_round_trips_exactly() {
        // A Min that never folded a numeric value is +inf; NaN can reach a
        // Sum through the data. Both must survive the inter-node hop
        // bit-exactly.
        let p = NetPayload::ShardState {
            shard: 1,
            epoch: 2,
            source: 0,
            rel: 0,
            delta: StatePartial::Group(vec![GroupPartialEntry {
                window_start: 0,
                key: GroupKey::from_values(&[Value::F64(f64::NAN)]),
                states: vec![
                    AggState::Min(f64::INFINITY),
                    AggState::Max(f64::NEG_INFINITY),
                    AggState::Sum(f64::NAN),
                ],
            }]),
        };
        let wire = encode_shard_payload(&p);
        let back = decode_shard_payload(wire, &[schema()]).unwrap();
        let NetPayload::ShardState {
            delta: StatePartial::Group(entries),
            ..
        } = back
        else {
            panic!("state payload expected");
        };
        let [Value::F64(k)] = entries[0].key.values()[..] else {
            panic!("f64 key expected");
        };
        assert!(k.is_nan());
        assert_eq!(
            entries[0].states[..2],
            [
                AggState::Min(f64::INFINITY),
                AggState::Max(f64::NEG_INFINITY)
            ]
        );
        let AggState::Sum(s) = entries[0].states[2] else {
            panic!("sum expected");
        };
        assert!(s.is_nan());
    }

    #[test]
    fn delta_aware_shard_batches_shrink_after_first_contact() {
        use streamkit::batch::{Column, StreamDict};

        let schema = Schema::new(vec![
            Field::new("tenant", DataType::Str),
            Field::new("v", DataType::U64),
        ]);
        let mut stream = StreamDict::new();
        for t in ["tenant-00", "tenant-01", "tenant-02"] {
            stream.intern(t);
        }
        let dict = stream.snapshot();
        let mk = |epoch: u64, codes: Vec<u32>| {
            let n = codes.len();
            NetPayload::ShardBatch {
                shard: 1,
                epoch,
                source: 0,
                rel: 0,
                batch: Batch {
                    schema: schema.clone(),
                    timestamps: vec![epoch as i64; n],
                    columns: vec![
                        Column::Dict {
                            codes,
                            dict: dict.clone(),
                        },
                        Column::U64(vec![7; n]),
                    ],
                },
            }
        };
        let first = mk(1, vec![0, 1, 2]);
        let second = mk(2, vec![2, 0, 1]);

        let mut link = DictVersions::new();
        let mut registry = DictRegistry::new();
        let wire1 = encode_shard_payload_with(&first, &mut link);
        let wire2 = encode_shard_payload_with(&second, &mut link);
        assert!(
            wire2.len() < wire1.len(),
            "synced link must ship codes only: {} !< {}",
            wire2.len(),
            wire1.len()
        );
        let back1 =
            decode_shard_payload_with(wire1.clone(), std::slice::from_ref(&schema), &mut registry);
        assert_eq!(back1.unwrap(), first);
        let back2 =
            decode_shard_payload_with(wire2.clone(), std::slice::from_ref(&schema), &mut registry);
        assert_eq!(back2.unwrap(), second);

        // The plain decode path must refuse delta pages with a typed error,
        // not misread them.
        assert!(decode_shard_payload(wire2, std::slice::from_ref(&schema)).is_err());
        // And a fresh registry (post-recovery receiver) must refuse a frame
        // whose delta assumes earlier contact.
        let mut fresh = DictRegistry::new();
        let resync = encode_shard_payload_with(&mk(3, vec![1]), &mut link);
        assert!(decode_shard_payload_with(resync, &[schema], &mut fresh).is_err());
    }

    #[test]
    fn peek_reads_the_envelope_without_schemas() {
        let p = NetPayload::ShardState {
            shard: 3,
            epoch: 9,
            source: 2,
            rel: 1,
            delta: StatePartial::Group(vec![]),
        };
        let wire = encode_shard_payload(&p);
        let env = peek_envelope(&wire).unwrap();
        assert!(env.is_state);
        assert_eq!((env.shard, env.epoch, env.source, env.rel), (3, 9, 2, 1));
        // Garbage and truncations peek to None, never panic.
        assert_eq!(peek_envelope(b"short"), None);
        assert_eq!(peek_envelope(&wire[..24]), None);
        let mut bad_tag = wire.to_vec();
        bad_tag[0] = 99;
        assert_eq!(peek_envelope(&bad_tag), None);
    }

    #[test]
    fn truncated_payload_rejected() {
        let p = NetPayload::ShardBatch {
            shard: 1,
            epoch: 1,
            source: 0,
            rel: 0,
            batch: batch(),
        };
        let wire = encode_shard_payload(&p);
        let cut = wire.slice(0..wire.len() - 1);
        assert!(decode_shard_payload(cut, &[schema()]).is_err());
    }

    #[test]
    fn out_of_range_rel_rejected() {
        let p = NetPayload::ShardBatch {
            shard: 1,
            epoch: 1,
            source: 0,
            rel: 9,
            batch: batch(),
        };
        let wire = encode_shard_payload(&p);
        assert!(decode_shard_payload(wire, &[schema()]).is_err());
    }

    /// Length of the integer page at the front of `page` over `rows`
    /// values: width, a base unless the width is 8, the offsets.
    fn int_page_len(page: &[u8], rows: usize) -> usize {
        let width = page[0] as usize;
        1 + if width < 8 { 8 } else { 0 } + rows * width
    }

    /// Length of the timestamp page at the front of `page` over `rows`
    /// values: an integer page, or (width byte `0x80`) the first value and
    /// a LEB128 step per later row.
    fn ts_page_len(page: &[u8], rows: usize) -> usize {
        if page[0] != 0x80 {
            return int_page_len(page, rows);
        }
        let mut at = 1 + 8;
        for _ in 1..rows {
            while page[at] & 0x80 != 0 {
                at += 1;
            }
            at += 1;
        }
        at
    }

    /// Walks an S2SProbe state body, run by run: per run two `U64` key
    /// pages, then `Avg` (an `F64` and a `U64` page), `Max` and `Min`.
    /// Returns the `F64` pages seen, those shipped as integer pages, and the
    /// body's length had every `F64` page gone raw (8 B a value).
    fn s2s_float_pages(body: &[u8]) -> (usize, usize, usize) {
        const SHAPE: [u8; 13] = [2, 0, 3, 3, 3, 0, 4, 3, 2, 0x53, 0x56, 0x52, 0x4A];
        let (mut pages, mut int_pages, mut raw_len) = (0, 0, body.len());
        let mut at = 0;
        while at < body.len() {
            assert_eq!(body[at..at + 13], SHAPE, "an S2S run and the batch magic");
            let rows = u32::from_le_bytes(body[at + 13..at + 17].try_into().unwrap()) as usize;
            at += 17;
            at += ts_page_len(&body[at..], rows);
            for is_float in [false, false, true, false, true, true] {
                let flags = body[at];
                at += 1;
                assert_eq!(flags & 1, 0, "state columns carry no validity");
                let len = if !is_float {
                    int_page_len(&body[at..], rows)
                } else if flags & 2 != 0 {
                    int_pages += 1;
                    let len = int_page_len(&body[at..], rows);
                    raw_len = raw_len - len + rows * 8;
                    len
                } else {
                    rows * 8
                };
                pages += usize::from(is_float);
                at += len;
            }
        }
        assert_eq!(at, body.len());
        (pages, int_pages, raw_len)
    }

    #[test]
    fn s2s_source_partials_ship_every_float_page_as_integers() {
        use streamkit::ops::AggRole;
        use streamkit::physical::{build_pipeline, CostProfile};
        use streamkit::shard::Ring;
        use telemetry::pingmesh::{PingmeshConfig, PingmeshGenerator};

        // One source's partial over one Pingmesh epoch (seed 17), split
        // over a 4-shard ring as a Jarvis source ships it.
        let plan = telemetry::queries::s2s_probe();
        let (boundary, keys) = plan.shard_boundary().expect("S2SProbe has a G+R");
        let mut ops =
            build_pipeline(&plan, &CostProfile::default(), AggRole::Partial).expect("valid plan");
        ops.truncate(boundary + 1);
        let mut gen = PingmeshGenerator::new(PingmeshConfig {
            seed: 17,
            ..Default::default()
        });
        let mut batches = vec![gen.generate_epoch_batch(0, 1.0)];
        for op in &mut ops {
            let mut next = Vec::new();
            for b in batches {
                op.process_batch(b, &mut next);
            }
            batches = next;
        }
        let delta = ops[boundary].take_state_delta().expect("partial state");
        let (mut pages, mut int_pages, mut body, mut raw) = (0, 0, 0, 0);
        for (shard, delta) in Ring::new(4, keys).split_state(delta) {
            let payload = NetPayload::ShardState {
                shard: shard as u32,
                epoch: 0,
                source: 0,
                rel: 0,
                delta,
            };
            let wire = encode_shard_payload(&payload);
            assert_eq!(decode_shard_payload(wire.clone(), &[]).unwrap(), payload);
            let (p, i, r) = s2s_float_pages(&wire[ENVELOPE_LEN..]);
            pages += p;
            int_pages += i;
            body += wire.len() - ENVELOPE_LEN;
            raw += r;
        }
        // `Avg`'s sum, `Max` and `Min` of the integer `rtt` are integers.
        assert!(pages >= 12, "{pages} float pages");
        assert_eq!(int_pages, pages, "every float page ships as integers");
        assert!(
            body * 100 <= raw * 45,
            "state body {body} B against {raw} B with raw float pages"
        );
    }
}
