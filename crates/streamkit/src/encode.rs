//! Wire encoding for batches.
//!
//! A compact, length-prefixed little-endian format standing in for the Kryo
//! serialisation the paper's implementation uses between MiNiFi and NiFi.
//! The encoded length is what links in `simnet` charge against bandwidth.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::agg::AggState;
use crate::batch::{Batch, Column, DictDelta, DictRegistry, DictVersions, StrDict};
use crate::error::{Error, Result};
use crate::ops::GroupPartialEntry;
use crate::quantile::QuantileSketch;
use crate::schema::{DataType, SchemaRef};
use crate::value::Value;

const MAGIC: u32 = 0x4A52_5653; // "JRVS"

/// Page tag for a plain string column (per-row length-prefixed payloads).
const STR_PAGE_PLAIN: u8 = 0;
/// Page tag for a dictionary string column (dictionary page + u32 codes).
const STR_PAGE_DICT: u8 = 1;
/// Page tag for a persistent-dictionary delta page: dict id, base version,
/// newly appended entries (with checksum), then u32 codes. Ships only what
/// the receiver's mirror is missing; `base == 0` is the first-contact full
/// page.
const STR_PAGE_DICT_DELTA: u8 = 2;

/// Encodes a batch. The receiver must know the schema (schemas are fixed per
/// query edge, as in the paper's deployments).
///
/// Every dictionary column ships its full page — the frame is
/// self-contained, decodable by [`decode_batch`] with no link state. Use
/// [`encode_batch_with`] on established links to ship persistent-dictionary
/// deltas instead.
pub fn encode_batch(batch: &Batch) -> Bytes {
    encode_batch_impl(batch, None)
}

/// Encodes a batch for a specific link, shipping persistent dictionary
/// columns as delta pages: codes plus only the entries appended since the
/// link's last ship (tracked and advanced in `link`; drop an entry from the
/// map — or the whole map — to force a full re-handshake after recovery).
/// Batch-local dictionaries (id 0) still ship full pages. Decode with
/// [`decode_batch_with`] against the receiving end's [`DictRegistry`].
pub fn encode_batch_with(batch: &Batch, link: &mut DictVersions) -> Bytes {
    encode_batch_impl(batch, Some(link))
}

fn encode_batch_impl(batch: &Batch, mut link: Option<&mut DictVersions>) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + batch.wire_size());
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(batch.len() as u32);
    for ts in &batch.timestamps {
        buf.put_i64_le(*ts);
    }
    for col in &batch.columns {
        // Presence flag: 1 = a validity byte per row precedes the payload.
        let (col, valid) = match col {
            Column::Opt { valid, values } => (values.as_ref(), Some(valid)),
            dense => (dense, None),
        };
        match valid {
            Some(valid) => {
                buf.put_u8(1);
                for v in valid {
                    buf.put_u8(u8::from(*v));
                }
            }
            None => buf.put_u8(0),
        }
        match col {
            Column::Bool(v) => {
                for b in v {
                    buf.put_u8(u8::from(*b));
                }
            }
            Column::I64(v) => {
                for x in v {
                    buf.put_i64_le(*x);
                }
            }
            Column::U64(v) => {
                for x in v {
                    buf.put_u64_le(*x);
                }
            }
            Column::F64(v) => {
                for x in v {
                    buf.put_f64_le(*x);
                }
            }
            Column::Str { offsets, data } => {
                buf.put_u8(STR_PAGE_PLAIN);
                for w in offsets.windows(2) {
                    let (lo, hi) = (w[0] as usize, w[1] as usize);
                    buf.put_u16_le((hi - lo) as u16);
                    buf.put_slice(&data[lo..hi]);
                }
            }
            Column::Dict { codes, dict } => match link.as_deref_mut().filter(|_| dict.id() != 0) {
                Some(link) => {
                    // Persistent page on an established link: ship only the
                    // delta past the receiver's mirrored version — the wire
                    // shape `layout::dict_bytes_versioned` accounts for.
                    let sent = link.entry(dict.id()).or_insert(0);
                    let base = (*sent).min(dict.len() as u32);
                    let delta = if codes.is_empty() {
                        // An empty column ships no entries and must not
                        // advance the mirror (accounting charges nothing).
                        DictDelta {
                            dict_id: dict.id(),
                            base,
                            entries: Vec::new(),
                        }
                    } else {
                        *sent = (*sent).max(dict.len() as u32);
                        dict.delta_since(base)
                    };
                    buf.put_u8(STR_PAGE_DICT_DELTA);
                    buf.put_u64_le(delta.dict_id);
                    buf.put_u32_le(delta.base);
                    buf.put_u32_le(delta.entries.len() as u32);
                    buf.put_u64_le(delta.checksum());
                    for entry in &delta.entries {
                        debug_assert!(
                            entry.len() <= u16::MAX as usize,
                            "dict entry exceeds the u16 wire length prefix"
                        );
                        buf.put_u16_le(entry.len() as u16);
                        buf.put_slice(entry.as_bytes());
                    }
                    for c in codes {
                        buf.put_u32_le(*c);
                    }
                }
                None => {
                    // Dictionary page once, then one fixed-width code per
                    // row — the wire shape `layout::dict_bytes` accounts
                    // for. Self-contained: checkpoint/replay frames stay on
                    // this path even for persistent pages.
                    buf.put_u8(STR_PAGE_DICT);
                    buf.put_u32_le(dict.len() as u32);
                    for entry in dict.iter() {
                        // The u16 length prefix caps entries at 64 KiB;
                        // Column::dict_encode refuses longer values upstream.
                        debug_assert!(
                            entry.len() <= u16::MAX as usize,
                            "dict entry exceeds the u16 wire length prefix"
                        );
                        buf.put_u16_le(entry.len() as u16);
                        buf.put_slice(entry.as_bytes());
                    }
                    for c in codes {
                        buf.put_u32_le(*c);
                    }
                }
            },
            Column::Opt { .. } => unreachable!("validity unwrapped above"),
        }
    }
    buf.freeze()
}

/// Decodes a batch previously produced by [`encode_batch`] for `schema`.
/// Delta pages ([`encode_batch_with`]) are rejected with a typed error —
/// they need the link's [`DictRegistry`] (see [`decode_batch_with`]).
pub fn decode_batch(schema: SchemaRef, buf: Bytes) -> Result<Batch> {
    decode_batch_impl(schema, buf, None)
}

/// Decodes a batch from a link that ships persistent-dictionary deltas
/// ([`encode_batch_with`]), applying each delta page to `registry` (which
/// mirrors the sender's dictionaries for this link). Out-of-order deltas,
/// version mismatches, and checksum failures are typed decode errors.
pub fn decode_batch_with(
    schema: SchemaRef,
    buf: Bytes,
    registry: &mut DictRegistry,
) -> Result<Batch> {
    decode_batch_impl(schema, buf, Some(registry))
}

fn decode_batch_impl(
    schema: SchemaRef,
    mut buf: Bytes,
    mut registry: Option<&mut DictRegistry>,
) -> Result<Batch> {
    let need = |buf: &Bytes, n: usize| -> Result<()> {
        if buf.remaining() < n {
            Err(Error::Decode(format!(
                "buffer underrun: need {n}, have {}",
                buf.remaining()
            )))
        } else {
            Ok(())
        }
    };
    need(&buf, 8)?;
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(Error::Decode(format!("bad magic {magic:#x}")));
    }
    let rows = buf.get_u32_le() as usize;
    need(&buf, rows * 8)?;
    let mut timestamps = Vec::with_capacity(rows);
    for _ in 0..rows {
        timestamps.push(buf.get_i64_le());
    }
    let mut columns = Vec::with_capacity(schema.width());
    for field in schema.fields() {
        need(&buf, 1)?;
        let valid = if buf.get_u8() != 0 {
            need(&buf, rows)?;
            Some((0..rows).map(|_| buf.get_u8() != 0).collect::<Vec<_>>())
        } else {
            None
        };
        let col = match field.dtype {
            DataType::Bool => {
                need(&buf, rows)?;
                Column::Bool((0..rows).map(|_| buf.get_u8() != 0).collect())
            }
            DataType::I32 | DataType::I64 => {
                need(&buf, rows * 8)?;
                Column::I64((0..rows).map(|_| buf.get_i64_le()).collect())
            }
            DataType::U32 | DataType::U64 => {
                need(&buf, rows * 8)?;
                Column::U64((0..rows).map(|_| buf.get_u64_le()).collect())
            }
            DataType::F64 => {
                need(&buf, rows * 8)?;
                Column::F64((0..rows).map(|_| buf.get_f64_le()).collect())
            }
            DataType::Str => {
                need(&buf, 1)?;
                match buf.get_u8() {
                    STR_PAGE_PLAIN => {
                        let mut offsets = Vec::with_capacity(rows + 1);
                        offsets.push(0u32);
                        let mut data = Vec::new();
                        for _ in 0..rows {
                            need(&buf, 2)?;
                            let len = buf.get_u16_le() as usize;
                            need(&buf, len)?;
                            data.extend_from_slice(&buf.chunk()[..len]);
                            buf.advance(len);
                            offsets.push(data.len() as u32);
                        }
                        // Wire data is untrusted: enforce the Column::Str
                        // invariant per row — every payload must be valid
                        // UTF-8 on its own, not merely as a concatenation
                        // (split multi-byte sequences must be rejected).
                        for w in offsets.windows(2) {
                            std::str::from_utf8(&data[w[0] as usize..w[1] as usize]).map_err(
                                |e| Error::Decode(format!("invalid UTF-8 payload: {e}")),
                            )?;
                        }
                        Column::Str {
                            offsets,
                            data: Bytes::from(data),
                        }
                    }
                    STR_PAGE_DICT => {
                        need(&buf, 4)?;
                        let entries = buf.get_u32_le() as usize;
                        let mut dict = StrDict::new();
                        for _ in 0..entries {
                            need(&buf, 2)?;
                            let len = buf.get_u16_le() as usize;
                            need(&buf, len)?;
                            let entry = std::str::from_utf8(&buf.chunk()[..len])
                                .map_err(|e| {
                                    Error::Decode(format!("invalid UTF-8 dict entry: {e}"))
                                })?
                                .to_string();
                            buf.advance(len);
                            dict.push(&entry);
                        }
                        need(&buf, rows * 4)?;
                        let mut codes = Vec::with_capacity(rows);
                        for row in 0..rows {
                            let c = buf.get_u32_le();
                            // Null rows carry a code-0 filler that may point
                            // at an empty dictionary; every valid row's code
                            // must land inside it.
                            let null_filler = c == 0 && valid.as_ref().is_some_and(|v| !v[row]);
                            if c as usize >= entries && !null_filler {
                                return Err(Error::Decode(format!(
                                    "dict code {c} out of range ({entries} entries)"
                                )));
                            }
                            codes.push(c);
                        }
                        Column::Dict {
                            codes,
                            dict: Arc::new(dict),
                        }
                    }
                    STR_PAGE_DICT_DELTA => {
                        let Some(registry) = registry.as_deref_mut() else {
                            return Err(Error::Decode(
                                "dict delta page on a schema-only decode path \
                                 (no link registry to resolve it against)"
                                    .into(),
                            ));
                        };
                        need(&buf, 24)?;
                        let dict_id = buf.get_u64_le();
                        let base = buf.get_u32_le();
                        let n_entries = buf.get_u32_le() as usize;
                        let expected_sum = buf.get_u64_le();
                        let mut entries = Vec::with_capacity(n_entries.min(1024));
                        for _ in 0..n_entries {
                            need(&buf, 2)?;
                            let len = buf.get_u16_le() as usize;
                            need(&buf, len)?;
                            let entry = std::str::from_utf8(&buf.chunk()[..len])
                                .map_err(|e| {
                                    Error::Decode(format!("invalid UTF-8 dict entry: {e}"))
                                })?
                                .to_string();
                            buf.advance(len);
                            entries.push(entry);
                        }
                        let delta = DictDelta {
                            dict_id,
                            base,
                            entries,
                        };
                        if delta.checksum() != expected_sum {
                            return Err(Error::Decode(format!(
                                "dict delta checksum mismatch for dict {dict_id} \
                                 (base {base}, {n_entries} entries)"
                            )));
                        }
                        // Applies the delta to this link's mirror; rejects
                        // out-of-order / version-mismatched deltas.
                        let dict = registry.apply(&delta)?;
                        need(&buf, rows * 4)?;
                        let mut codes = Vec::with_capacity(rows);
                        let entries = dict.len();
                        for row in 0..rows {
                            let c = buf.get_u32_le();
                            let null_filler = c == 0 && valid.as_ref().is_some_and(|v| !v[row]);
                            if c as usize >= entries && !null_filler {
                                return Err(Error::Decode(format!(
                                    "dict code {c} out of range ({entries} mirrored entries)"
                                )));
                            }
                            codes.push(c);
                        }
                        Column::Dict { codes, dict }
                    }
                    tag => {
                        return Err(Error::Decode(format!("unknown string page tag {tag}")));
                    }
                }
            }
        };
        columns.push(match valid {
            Some(valid) => Column::Opt {
                valid,
                values: Box::new(col),
            },
            None => col,
        });
    }
    Ok(Batch {
        schema,
        timestamps,
        columns,
    })
}

/// Value tags for the group-state wire format.
const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_I64: u8 = 2;
const VAL_U64: u8 = 3;
const VAL_F64: u8 = 4;
const VAL_STR: u8 = 5;

/// Aggregate-state tags for the group-state wire format.
const AGG_COUNT: u8 = 0;
const AGG_SUM: u8 = 1;
const AGG_MIN: u8 = 2;
const AGG_MAX: u8 = 3;
const AGG_AVG: u8 = 4;
const AGG_QUANTILE: u8 = 5;

/// Encodes shipped group-aggregation state. Floats travel as raw bit
/// patterns, so non-finite accumulators — a `Min` that never saw a numeric
/// value is `+inf` — round-trip exactly (JSON-style encodings turn them
/// into `null` and lose the state).
pub fn encode_group_state(entries: &[GroupPartialEntry]) -> Bytes {
    let mut buf = BytesMut::with_capacity(32 * entries.len());
    buf.put_u32_le(entries.len() as u32);
    for entry in entries {
        buf.put_i64_le(entry.window_start);
        buf.put_u16_le(entry.key.len() as u16);
        for v in &entry.key {
            match v {
                Value::Null => buf.put_u8(VAL_NULL),
                Value::Bool(b) => {
                    buf.put_u8(VAL_BOOL);
                    buf.put_u8(*b as u8);
                }
                Value::I64(x) => {
                    buf.put_u8(VAL_I64);
                    buf.put_i64_le(*x);
                }
                Value::U64(x) => {
                    buf.put_u8(VAL_U64);
                    buf.put_u64_le(*x);
                }
                Value::F64(x) => {
                    buf.put_u8(VAL_F64);
                    buf.put_u64_le(x.to_bits());
                }
                Value::Str(s) => {
                    buf.put_u8(VAL_STR);
                    buf.put_u16_le(s.len() as u16);
                    buf.put_slice(s.as_bytes());
                }
            }
        }
        buf.put_u16_le(entry.states.len() as u16);
        for state in &entry.states {
            match state {
                AggState::Count(c) => {
                    buf.put_u8(AGG_COUNT);
                    buf.put_u64_le(*c);
                }
                AggState::Sum(s) => {
                    buf.put_u8(AGG_SUM);
                    buf.put_u64_le(s.to_bits());
                }
                AggState::Min(m) => {
                    buf.put_u8(AGG_MIN);
                    buf.put_u64_le(m.to_bits());
                }
                AggState::Max(m) => {
                    buf.put_u8(AGG_MAX);
                    buf.put_u64_le(m.to_bits());
                }
                AggState::Avg { sum, count } => {
                    buf.put_u8(AGG_AVG);
                    buf.put_u64_le(sum.to_bits());
                    buf.put_u64_le(*count);
                }
                AggState::Quantile { q, sketch } => {
                    let (lo, hi, counts, underflow, overflow, total) = sketch.to_parts();
                    buf.put_u8(AGG_QUANTILE);
                    buf.put_u64_le(q.to_bits());
                    buf.put_u64_le(lo.to_bits());
                    buf.put_u64_le(hi.to_bits());
                    buf.put_u32_le(counts.len() as u32);
                    for c in counts {
                        buf.put_u64_le(*c);
                    }
                    buf.put_u64_le(underflow);
                    buf.put_u64_le(overflow);
                    buf.put_u64_le(total);
                }
            }
        }
    }
    buf.freeze()
}

/// Decodes group-aggregation state produced by [`encode_group_state`].
pub fn decode_group_state(mut buf: Bytes) -> Result<Vec<GroupPartialEntry>> {
    let need = |buf: &Bytes, n: usize| -> Result<()> {
        if buf.remaining() < n {
            Err(Error::Decode(format!(
                "state underrun: need {n}, have {}",
                buf.remaining()
            )))
        } else {
            Ok(())
        }
    };
    need(&buf, 4)?;
    let n_entries = buf.get_u32_le() as usize;
    let mut entries = Vec::with_capacity(n_entries.min(1024));
    for _ in 0..n_entries {
        need(&buf, 10)?;
        let window_start = buf.get_i64_le();
        let key_len = buf.get_u16_le() as usize;
        let mut key = Vec::with_capacity(key_len);
        for _ in 0..key_len {
            need(&buf, 1)?;
            key.push(match buf.get_u8() {
                VAL_NULL => Value::Null,
                VAL_BOOL => {
                    need(&buf, 1)?;
                    Value::Bool(buf.get_u8() != 0)
                }
                VAL_I64 => {
                    need(&buf, 8)?;
                    Value::I64(buf.get_i64_le())
                }
                VAL_U64 => {
                    need(&buf, 8)?;
                    Value::U64(buf.get_u64_le())
                }
                VAL_F64 => {
                    need(&buf, 8)?;
                    Value::F64(f64::from_bits(buf.get_u64_le()))
                }
                VAL_STR => {
                    need(&buf, 2)?;
                    let len = buf.get_u16_le() as usize;
                    need(&buf, len)?;
                    let s = std::str::from_utf8(&buf.chunk()[..len])
                        .map_err(|e| Error::Decode(format!("invalid UTF-8 key: {e}")))?
                        .into();
                    buf.advance(len);
                    Value::Str(s)
                }
                tag => return Err(Error::Decode(format!("unknown value tag {tag}"))),
            });
        }
        need(&buf, 2)?;
        let n_states = buf.get_u16_le() as usize;
        let mut states = Vec::with_capacity(n_states);
        for _ in 0..n_states {
            need(&buf, 1)?;
            states.push(match buf.get_u8() {
                AGG_COUNT => {
                    need(&buf, 8)?;
                    AggState::Count(buf.get_u64_le())
                }
                AGG_SUM => {
                    need(&buf, 8)?;
                    AggState::Sum(f64::from_bits(buf.get_u64_le()))
                }
                AGG_MIN => {
                    need(&buf, 8)?;
                    AggState::Min(f64::from_bits(buf.get_u64_le()))
                }
                AGG_MAX => {
                    need(&buf, 8)?;
                    AggState::Max(f64::from_bits(buf.get_u64_le()))
                }
                AGG_AVG => {
                    need(&buf, 16)?;
                    AggState::Avg {
                        sum: f64::from_bits(buf.get_u64_le()),
                        count: buf.get_u64_le(),
                    }
                }
                AGG_QUANTILE => {
                    need(&buf, 28)?;
                    let q = f64::from_bits(buf.get_u64_le());
                    let lo = f64::from_bits(buf.get_u64_le());
                    let hi = f64::from_bits(buf.get_u64_le());
                    let buckets = buf.get_u32_le() as usize;
                    // NaN bounds compare as incomparable and must be
                    // rejected along with an empty or inverted range.
                    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) || buckets == 0 {
                        return Err(Error::Decode(format!(
                            "bad sketch geometry: lo {lo}, hi {hi}, {buckets} buckets"
                        )));
                    }
                    need(&buf, 8 * (buckets + 3))?;
                    let counts = (0..buckets).map(|_| buf.get_u64_le()).collect();
                    AggState::Quantile {
                        q,
                        sketch: Box::new(QuantileSketch::from_parts(
                            lo,
                            hi,
                            counts,
                            buf.get_u64_le(),
                            buf.get_u64_le(),
                            buf.get_u64_le(),
                        )),
                    }
                }
                tag => return Err(Error::Decode(format!("unknown agg-state tag {tag}"))),
            });
        }
        entries.push(GroupPartialEntry {
            window_start,
            key,
            states,
        });
    }
    if buf.remaining() > 0 {
        return Err(Error::Decode(format!(
            "{} trailing bytes after group state",
            buf.remaining()
        )));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::schema::{Field, Schema};
    use crate::value::Value;

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("ip", DataType::U32),
            Field::new("rtt", DataType::F64),
            Field::new("tenant", DataType::Str),
            Field::new("ok", DataType::Bool),
        ])
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = schema();
        let recs = vec![
            Record::new(
                100,
                vec![
                    Value::U64(1),
                    Value::F64(0.2),
                    Value::str("t0"),
                    Value::Bool(true),
                ],
            ),
            Record::new(
                200,
                vec![
                    Value::U64(2),
                    Value::F64(5.5),
                    Value::str(""),
                    Value::Bool(false),
                ],
            ),
        ];
        let batch = Batch::from_records(s.clone(), &recs).unwrap();
        let bytes = encode_batch(&batch);
        let back = decode_batch(s, bytes).unwrap();
        assert_eq!(back.to_records(), recs);
    }

    #[test]
    fn null_values_round_trip() {
        let s = schema();
        let recs = vec![
            Record::new(
                1,
                vec![
                    Value::U64(1),
                    Value::Null,
                    Value::str("t"),
                    Value::Bool(true),
                ],
            ),
            Record::new(
                2,
                vec![
                    Value::Null,
                    Value::F64(1.0),
                    Value::Null,
                    Value::Bool(false),
                ],
            ),
        ];
        let batch = Batch::from_records(s.clone(), &recs).unwrap();
        let back = decode_batch(s, encode_batch(&batch)).unwrap();
        assert_eq!(back.to_records(), recs);
    }

    #[test]
    fn dict_column_round_trips_and_ships_fewer_bytes() {
        let s = Schema::new(vec![Field::new("tenant", DataType::Str)]);
        let recs: Vec<Record> = (0..100)
            .map(|i| Record::new(i, vec![Value::str(format!("tenant-{}", i % 3))]))
            .collect();
        let plain = Batch::from_records(s.clone(), &recs).unwrap();
        let mut dict = plain.clone();
        assert!(dict.dict_encode(16));
        let plain_bytes = encode_batch(&plain);
        let dict_bytes = encode_batch(&dict);
        assert!(
            dict_bytes.len() < plain_bytes.len(),
            "dict page {} must beat plain {}",
            dict_bytes.len(),
            plain_bytes.len()
        );
        let back = decode_batch(s, dict_bytes).unwrap();
        assert_eq!(back, dict, "dict round-trips structurally");
        assert_eq!(back.to_records(), recs);
    }

    #[test]
    fn opt_wrapped_dict_round_trips() {
        use crate::batch::DictBuilder;
        let s = Schema::new(vec![Field::new("tag", DataType::Str)]);
        let mut b = DictBuilder::new(4);
        b.push("a");
        b.push_null();
        b.push("b");
        b.push("a");
        let batch = Batch {
            schema: s.clone(),
            timestamps: vec![0, 1, 2, 3],
            columns: vec![b.finish()],
        };
        let back = decode_batch(s, encode_batch(&batch)).unwrap();
        assert_eq!(back, batch);
        assert_eq!(back.columns[0].value(1), Value::Null);
    }

    #[test]
    fn invalid_utf8_payload_rejected_at_decode() {
        let s = Schema::new(vec![Field::new("t", DataType::Str)]);
        let recs = vec![Record::new(0, vec![Value::str("ok")])];
        let batch = Batch::from_records(s.clone(), &recs).unwrap();
        let mut raw = encode_batch(&batch).to_vec();
        // Corrupt the string payload ("ok" sits at the tail) with a lone
        // continuation byte.
        let n = raw.len();
        raw[n - 1] = 0xFF;
        assert!(matches!(
            decode_batch(s, Bytes::from(raw)),
            Err(Error::Decode(_))
        ));
    }

    #[test]
    fn split_multibyte_sequence_rejected_per_row() {
        // Two rows whose payloads concatenate to valid UTF-8 ("é" split
        // across rows) must still be rejected: each row's slice has to be
        // valid on its own.
        let s = Schema::new(vec![Field::new("t", DataType::Str)]);
        let mut raw = BytesMut::with_capacity(64);
        raw.put_u32_le(super::MAGIC);
        raw.put_u32_le(2); // rows
        raw.put_i64_le(0);
        raw.put_i64_le(1);
        raw.put_u8(0); // dense
        raw.put_u8(super::STR_PAGE_PLAIN);
        raw.put_u16_le(1);
        raw.put_u8(0xC3);
        raw.put_u16_le(1);
        raw.put_u8(0xA9);
        assert!(matches!(
            decode_batch(s, raw.freeze()),
            Err(Error::Decode(_))
        ));
    }

    #[test]
    fn all_null_dict_round_trips_but_dense_empty_dict_is_rejected() {
        use crate::batch::DictBuilder;
        let s = Schema::new(vec![Field::new("t", DataType::Str)]);
        // All-null column: empty dictionary, code-0 fillers behind validity.
        let mut b = DictBuilder::new(2);
        b.push_null();
        b.push_null();
        let batch = Batch {
            schema: s.clone(),
            timestamps: vec![0, 1],
            columns: vec![b.finish()],
        };
        let raw = encode_batch(&batch);
        let back = decode_batch(s.clone(), raw.clone()).unwrap();
        assert_eq!(back, batch);
        assert_eq!(back.columns[0].value(0), Value::Null);
        // The same bytes with the validity flag cleared describe a *dense*
        // column whose codes point into an empty dictionary: reject, or the
        // first read would index out of bounds.
        let mut dense = raw.to_vec();
        let flag_at = 4 + 4 + 2 * 8; // magic + rows + timestamps
        assert_eq!(dense[flag_at], 1, "validity flag expected here");
        dense[flag_at] = 0;
        // Drop the two validity bytes that followed the flag.
        dense.remove(flag_at + 1);
        dense.remove(flag_at + 1);
        assert!(matches!(
            decode_batch(s, Bytes::from(dense)),
            Err(Error::Decode(_))
        ));
    }

    #[test]
    fn out_of_range_dict_code_rejected() {
        let s = Schema::new(vec![Field::new("t", DataType::Str)]);
        let mut b = crate::batch::DictBuilder::new(1);
        b.push("x");
        let batch = Batch {
            schema: s.clone(),
            timestamps: vec![0],
            columns: vec![b.finish()],
        };
        let mut raw = encode_batch(&batch).to_vec();
        // The final u32 is the row's code; point it past the dictionary.
        let n = raw.len();
        raw[n - 4] = 9;
        assert!(matches!(
            decode_batch(s, Bytes::from(raw)),
            Err(Error::Decode(_))
        ));
    }

    #[test]
    fn delta_pages_ship_once_and_round_trip_across_batches() {
        use crate::batch::{DictVersions, StreamDict};
        let s = Schema::new(vec![Field::new("tenant", DataType::Str)]);
        let mut stream = StreamDict::new();
        let make = |stream: &mut StreamDict, names: &[&str]| {
            let codes: Vec<u32> = names.iter().map(|n| stream.intern(n)).collect();
            Batch {
                schema: s.clone(),
                timestamps: (0..names.len() as i64).collect(),
                columns: vec![Column::Dict {
                    codes,
                    dict: stream.snapshot(),
                }],
            }
        };
        let b1 = make(&mut stream, &["tenant-00", "tenant-01", "tenant-00"]);
        let b2 = make(&mut stream, &["tenant-01", "tenant-02"]);
        let mut link = DictVersions::new();
        let w1 = encode_batch_with(&b1, &mut link);
        let w2 = encode_batch_with(&b2, &mut link);
        // The second frame carries only the novel entry "tenant-02".
        let full2 = encode_batch(&b2);
        assert!(
            w2.len() < full2.len(),
            "delta frame {} must beat full-page frame {}",
            w2.len(),
            full2.len()
        );
        let mut reg = crate::batch::DictRegistry::new();
        let r1 = decode_batch_with(s.clone(), w1, &mut reg).unwrap();
        let r2 = decode_batch_with(s.clone(), w2, &mut reg).unwrap();
        assert_eq!(r1.to_records(), b1.to_records());
        assert_eq!(r2.to_records(), b2.to_records());
        // Receiver-side pages share one mirror and its persistent id.
        let (d1, _) = r1.columns[0].as_dict().unwrap();
        let (d2, _) = r2.columns[0].as_dict().unwrap();
        assert_ne!(d1.id(), 0, "mirror snapshots carry a receiver-local id");
        assert_eq!(d1.id(), d2.id());
        assert_eq!(d2.len(), 3);
    }

    #[test]
    fn chunked_batch_ships_its_dict_page_exactly_once() {
        use crate::batch::{DictRegistry, DictVersions, StreamDict};
        // The PR-3 waste: slicing one batch into N chunks re-carried the
        // full dict page N times. With a persistent stream and a delta-aware
        // link, the entries cross once — every later chunk ships a
        // zero-entry delta header.
        let s = Schema::new(vec![Field::new("tenant", DataType::Str)]);
        let mut stream = StreamDict::new();
        let codes: Vec<u32> = (0..60)
            .map(|i| stream.intern(&format!("tenant-{}", i % 8)))
            .collect();
        let batch = Batch {
            schema: s.clone(),
            timestamps: (0..60).collect(),
            columns: vec![Column::Dict {
                codes,
                dict: stream.snapshot(),
            }],
        };
        let chunks: Vec<Batch> = batch.chunks(15).collect();
        assert_eq!(chunks.len(), 4);

        let mut link = DictVersions::new();
        let wires: Vec<Bytes> = chunks
            .iter()
            .map(|c| encode_batch_with(c, &mut link))
            .collect();
        // After the first chunk the link has seen the whole page...
        assert_eq!(link[&stream.id()], stream.version());
        // ...so later chunks are codes plus an empty delta: all the same
        // size (equal row counts), strictly below the entry-carrying first
        // chunk and below a full-page re-ship.
        for (chunk, wire) in chunks.iter().zip(&wires).skip(1) {
            assert_eq!(wire.len(), wires[1].len());
            assert!(wire.len() < wires[0].len());
            assert!(
                wire.len() < encode_batch(chunk).len(),
                "a delta chunk must beat re-shipping the page"
            );
        }

        // The receiver reassembles the rows bit-identically through one
        // mirror.
        let mut reg = DictRegistry::new();
        let rows: Vec<_> = wires
            .into_iter()
            .flat_map(|w| {
                decode_batch_with(s.clone(), w, &mut reg)
                    .expect("chunks decode in order")
                    .to_records()
            })
            .collect();
        assert_eq!(rows, batch.to_records());
    }

    #[test]
    fn delta_page_on_plain_decode_path_is_a_typed_error() {
        use crate::batch::{DictVersions, StreamDict};
        let s = Schema::new(vec![Field::new("t", DataType::Str)]);
        let mut stream = StreamDict::new();
        let codes = vec![stream.intern("x")];
        let batch = Batch {
            schema: s.clone(),
            timestamps: vec![0],
            columns: vec![Column::Dict {
                codes,
                dict: stream.snapshot(),
            }],
        };
        let wire = encode_batch_with(&batch, &mut DictVersions::new());
        assert!(matches!(decode_batch(s, wire), Err(Error::Decode(_))));
    }

    #[test]
    fn out_of_order_and_corrupt_deltas_are_typed_errors() {
        use crate::batch::{DictRegistry, DictVersions, StreamDict};
        let s = Schema::new(vec![Field::new("t", DataType::Str)]);
        let mut stream = StreamDict::new();
        let codes: Vec<u32> = ["a", "b"].iter().map(|n| stream.intern(n)).collect();
        let b1 = Batch {
            schema: s.clone(),
            timestamps: vec![0, 1],
            columns: vec![Column::Dict {
                codes,
                dict: stream.snapshot(),
            }],
        };
        let mut link = DictVersions::new();
        let w1 = encode_batch_with(&b1, &mut link);
        stream.intern("c");
        let b2 = Batch {
            columns: vec![Column::Dict {
                codes: vec![2, 0],
                dict: stream.snapshot(),
            }],
            ..b1.clone()
        };
        let w2 = encode_batch_with(&b2, &mut link);
        // Skipping the first frame: the second delta's base (2) mismatches
        // an empty mirror.
        let mut skipped = DictRegistry::new();
        assert!(matches!(
            decode_batch_with(s.clone(), w2.clone(), &mut skipped),
            Err(Error::Decode(_))
        ));
        // Replaying the first frame after it already applied.
        let mut reg = DictRegistry::new();
        decode_batch_with(s.clone(), w1.clone(), &mut reg).unwrap();
        assert!(matches!(
            decode_batch_with(s.clone(), w1.clone(), &mut reg),
            Err(Error::Decode(_))
        ));
        // A bit flip inside a delta entry fails the checksum instead of
        // silently poisoning the mirror.
        let mut raw = w1.to_vec();
        let n = raw.len();
        // Entries sit between the 24-byte delta header and the trailing
        // codes; flip a bit in the entry payload region.
        raw[n - 4 * 2 - 1] ^= 0x01;
        let mut fresh = DictRegistry::new();
        assert!(matches!(
            decode_batch_with(s, Bytes::from(raw), &mut fresh),
            Err(Error::Decode(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let s = schema();
        let err = decode_batch(s, Bytes::from_static(&[0u8; 16])).unwrap_err();
        assert!(matches!(err, Error::Decode(_)));
    }

    #[test]
    fn truncated_buffer_rejected() {
        let s = schema();
        let recs = vec![Record::new(
            1,
            vec![
                Value::U64(1),
                Value::F64(0.0),
                Value::str("abc"),
                Value::Bool(true),
            ],
        )];
        let batch = Batch::from_records(s.clone(), &recs).unwrap();
        let bytes = encode_batch(&batch);
        let cut = bytes.slice(0..bytes.len() - 2);
        assert!(decode_batch(s, cut).is_err());
    }
}
