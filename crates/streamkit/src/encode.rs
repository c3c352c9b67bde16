//! Wire encoding for batches.
//!
//! A compact, length-prefixed little-endian format standing in for the Kryo
//! serialisation the paper's implementation uses between MiNiFi and NiFi.
//!
//! This is what the live system *ships*; what links are *charged* is
//! [`Batch::wire_size`] (`batch::layout`, the paper-calibrated accounting
//! model), which this module neither reads nor moves.
//!
//! ```text
//! batch    := magic u32 | rows u32 | int-page(timestamps) | column*
//! column   := presence u8 (1 = `rows` validity bytes follow) | payload
//! payload  := Bool: rows × u8 | F64: rows × 8 B | I64/U64: int-page
//!           | Str: page-tag u8, then plain rows, or a dictionary / delta
//!             page followed by int-page(codes)
//! int-page := width u8 ∈ {0, 1, 2, 4, 8} | base 8 B (values, width < 8)
//!           | rows × width little-endian offsets from the base
//! ```
//!
//! An integer page is byte-aligned frame of reference, sized by content: the
//! width is the narrowest that holds `max − min` of the page (wrapping, so
//! sign-straddling `i64` and `u64 ≥ 2^63` ranges work alike), the base is the
//! minimum, width 8 is the raw values with no base, and the encoder falls
//! back to width 8 whenever base + offsets would not be smaller. Dictionary
//! codes count from 0 by construction, so their pages carry no base and take
//! their width (at most 4) from the largest code. Timestamp pages are never
//! narrower than 1 byte, so every row of a frame is backed by at least one
//! wire byte and a forged row count cannot size an allocation the frame
//! does not pay for.

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
/// Page tag for a dictionary string column (dictionary page + code page).
const STR_PAGE_DICT: u8 = 1;
/// Page tag for a persistent-dictionary delta page: dict id, base version,
/// newly appended entries (with checksum), then the code page. Ships only
/// what the receiver's mirror is missing; `base == 0` is the first-contact
/// full page.
const STR_PAGE_DICT_DELTA: u8 = 2;

/// An integer that travels in an integer page.
trait PageInt: Copy + Ord {
    /// Whether a narrowed page carries its minimum as a base. Values do;
    /// dictionary codes count from 0 and do not.
    const BASED: bool;
    fn bits(self) -> u64;
    fn from_bits(bits: u64) -> Self;
}

impl PageInt for i64 {
    const BASED: bool = true;
    fn bits(self) -> u64 {
        self as u64
    }
    fn from_bits(bits: u64) -> i64 {
        bits as i64
    }
}

impl PageInt for u64 {
    const BASED: bool = true;
    fn bits(self) -> u64 {
        self
    }
    fn from_bits(bits: u64) -> u64 {
        bits
    }
}

impl PageInt for u32 {
    const BASED: bool = false;
    fn bits(self) -> u64 {
        u64::from(self)
    }
    fn from_bits(bits: u64) -> u32 {
        bits as u32
    }
}

/// Whether a `T` page of `width` ships an 8-byte base ahead of its offsets.
fn has_base<T: PageInt>(width: usize) -> bool {
    T::BASED && width < 8
}

/// The width and base the encoder chose for one integer page.
#[derive(Debug, Clone, Copy)]
struct IntPlan {
    width: usize,
    base: u64,
}

impl IntPlan {
    /// One pass over `values`: the narrowest width (not below `floor`) that
    /// holds `max − base`, or the raw width 8 when that would not be smaller.
    fn of<T: PageInt>(values: &[T], floor: usize) -> IntPlan {
        // An empty page runs through the same rule: span 0, and a base
        // would not pay for itself, so values go raw and codes take `floor`.
        let first = values.first().copied().unwrap_or(T::from_bits(0));
        let (lo, hi) = values
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let base = if T::BASED { lo.bits() } else { 0 };
        let width = match hi.bits().wrapping_sub(base) {
            0 => 0,
            1..=0xFF => 1,
            0x100..=0xFFFF => 2,
            0x1_0000..=0xFFFF_FFFF => 4,
            _ => 8,
        }
        .max(floor);
        if T::BASED && 8 + values.len() * width > values.len() * 8 {
            IntPlan { width: 8, base: 0 }
        } else {
            IntPlan { width, base }
        }
    }

    /// Encoded length of the page over `rows` values of type `T`.
    fn len<T: PageInt>(&self, rows: usize) -> usize {
        1 + if has_base::<T>(self.width) { 8 } else { 0 } + rows * self.width
    }
}

/// Writes `values` as `W`-byte little-endian offsets from `base`.
fn pack<const W: usize, T: PageInt>(out: &mut [u8], base: u64, values: &[T]) {
    for (dst, v) in out.chunks_exact_mut(W).zip(values) {
        dst.copy_from_slice(&v.bits().wrapping_sub(base).to_le_bytes()[..W]);
    }
}

/// Reads `W`-byte little-endian offsets from `base`.
fn unpack<const W: usize, T: PageInt>(page: &[u8], base: u64) -> Vec<T> {
    page.chunks_exact(W)
        .map(|src| {
            let mut le = [0u8; 8];
            le[..W].copy_from_slice(src);
            T::from_bits(base.wrapping_add(u64::from_le_bytes(le)))
        })
        .collect()
}

/// The integer-page writer: timestamps, `I64`, `U64` and dictionary codes
/// all go through here.
fn put_int_page<T: PageInt>(buf: &mut BytesMut, plan: IntPlan, values: &[T]) {
    buf.put_u8(plan.width as u8);
    if has_base::<T>(plan.width) {
        buf.put_u64_le(plan.base);
    }
    let start = buf.len();
    buf.resize(start + values.len() * plan.width, 0);
    let out = &mut buf[start..];
    match plan.width {
        0 => {}
        1 => pack::<1, T>(out, plan.base, values),
        2 => pack::<2, T>(out, plan.base, values),
        4 => pack::<4, T>(out, plan.base, values),
        _ => pack::<8, T>(out, plan.base, values),
    }
}

fn need(buf: &[u8], n: usize) -> Result<()> {
    if buf.len() < n {
        Err(Error::Decode(format!(
            "buffer underrun: need {n}, have {}",
            buf.len()
        )))
    } else {
        Ok(())
    }
}

/// The integer-page reader, inverse of [`put_int_page`]. The page length is
/// checked (overflow included) before anything is allocated.
fn get_int_page<T: PageInt>(buf: &mut &[u8], rows: usize) -> Result<Vec<T>> {
    need(buf, 1)?;
    let width = buf.get_u8() as usize;
    if !matches!(width, 0 | 1 | 2 | 4 | 8) || width > std::mem::size_of::<T>() {
        return Err(Error::Decode(format!(
            "bad integer page width {width} for a {}-byte type",
            std::mem::size_of::<T>()
        )));
    }
    let base = if has_base::<T>(width) {
        need(buf, 8)?;
        buf.get_u64_le()
    } else {
        0
    };
    let len = rows
        .checked_mul(width)
        .ok_or_else(|| Error::Decode(format!("integer page of {rows} × {width} B overflows")))?;
    need(buf, len)?;
    let (page, rest) = buf.split_at(len);
    *buf = rest;
    Ok(match width {
        0 => vec![T::from_bits(base); rows],
        1 => unpack::<1, T>(page, base),
        2 => unpack::<2, T>(page, base),
        4 => unpack::<4, T>(page, base),
        _ => unpack::<8, T>(page, base),
    })
}

/// What the planning pass decided about one column; the writing pass only
/// writes.
enum ColPlan {
    /// `Bool`, `F64`, plain `Str`: nothing to choose.
    Fixed,
    /// `I64` / `U64`.
    Int(IntPlan),
    /// Self-contained dictionary page, then the code page.
    Dict(IntPlan),
    /// Delta page against the link's mirror, then the code page.
    DictDelta(IntPlan, DictDelta),
}

/// Splits a column into its dense payload and validity mask.
fn unwrap_opt(col: &Column) -> (&Column, Option<&Vec<bool>>) {
    match col {
        Column::Opt { valid, values } => (values.as_ref(), Some(valid)),
        dense => (dense, None),
    }
}

/// Encoded length of dictionary `entries` (u16 length prefix each).
fn entries_len<'a>(entries: impl Iterator<Item = &'a str>) -> usize {
    entries.map(|e| 2 + e.len()).sum()
}

fn put_entries<'a>(buf: &mut BytesMut, entries: impl Iterator<Item = &'a str>) {
    for entry in entries {
        // The u16 length prefix caps entries at 64 KiB;
        // Column::dict_encode refuses longer values upstream.
        debug_assert!(
            entry.len() <= u16::MAX as usize,
            "dict entry exceeds the u16 wire length prefix"
        );
        buf.put_u16_le(entry.len() as u16);
        buf.put_slice(entry.as_bytes());
    }
}

/// True when [`encode_batch_with`] would ship a delta page for `batch`, i.e.
/// when its bytes depend on the link; for every other batch it produces
/// exactly the bytes of [`encode_batch`] and leaves the link untouched.
pub fn ships_dict_deltas(batch: &Batch) -> bool {
    batch
        .columns
        .iter()
        .any(|col| matches!(unwrap_opt(col).0, Column::Dict { dict, .. } if dict.id() != 0))
}

/// Encodes a batch. The receiver must know the schema (schemas are fixed per
/// query edge, as in the paper's deployments).
///
/// Every dictionary column ships its full page — the frame is
/// self-contained, decodable by [`decode_batch`] with no link state. Use
/// [`encode_batch_with`] on established links to ship persistent-dictionary
/// deltas instead.
pub fn encode_batch(batch: &Batch) -> Bytes {
    let mut buf = BytesMut::default();
    encode_batch_into(&mut buf, batch, None);
    buf.freeze()
}

/// Encodes a batch for a specific link, shipping persistent dictionary
/// columns as delta pages: codes plus only the entries appended since the
/// link's last ship (tracked and advanced in `link`; drop an entry from the
/// map — or the whole map — to force a full re-handshake after recovery).
/// Batch-local dictionaries (id 0) still ship full pages. Decode with
/// [`decode_batch_with`] against the receiving end's [`DictRegistry`].
pub fn encode_batch_with(batch: &Batch, link: &mut DictVersions) -> Bytes {
    let mut buf = BytesMut::default();
    encode_batch_into(&mut buf, batch, Some(link));
    buf.freeze()
}

/// Appends the encoding of `batch` to `buf` ([`encode_batch_with`] when a
/// `link` is given, [`encode_batch`] otherwise), so a caller's envelope and
/// the body share one buffer. Every width is chosen first and `buf` grows
/// once, by exactly the encoded length.
pub fn encode_batch_into(buf: &mut BytesMut, batch: &Batch, mut link: Option<&mut DictVersions>) {
    let rows = batch.len();
    // Pass one: choose every width and dictionary page, summing the length.
    let ts_plan = IntPlan::of(&batch.timestamps, 1);
    let mut len = 8 + ts_plan.len::<i64>(rows);
    let mut plans = Vec::with_capacity(batch.columns.len());
    for col in &batch.columns {
        let (col, valid) = unwrap_opt(col);
        len += 1 + valid.map_or(0, |_| rows);
        let plan = match col {
            Column::Bool(_) => {
                len += rows;
                ColPlan::Fixed
            }
            Column::F64(_) => {
                len += rows * 8;
                ColPlan::Fixed
            }
            Column::I64(v) => {
                let plan = IntPlan::of(v, 0);
                len += plan.len::<i64>(rows);
                ColPlan::Int(plan)
            }
            Column::U64(v) => {
                let plan = IntPlan::of(v, 0);
                len += plan.len::<u64>(rows);
                ColPlan::Int(plan)
            }
            Column::Str { offsets, .. } => {
                let bytes = offsets.last().map_or(0, |hi| hi - offsets[0]) as usize;
                len += 1 + 2 * rows + bytes;
                ColPlan::Fixed
            }
            Column::Dict { codes, dict } => {
                let plan = IntPlan::of(codes, 0);
                len += 1 + plan.len::<u32>(rows);
                match link.as_deref_mut().filter(|_| dict.id() != 0) {
                    Some(link) => {
                        // Persistent page on an established link: ship only
                        // the delta past the receiver's mirrored version —
                        // the wire shape `layout::dict_bytes_versioned`
                        // accounts for.
                        let sent = link.entry(dict.id()).or_insert(0);
                        let base = (*sent).min(dict.len() as u32);
                        let delta = if codes.is_empty() {
                            // An empty column ships no entries and must not
                            // advance the mirror (accounting charges
                            // nothing).
                            DictDelta {
                                dict_id: dict.id(),
                                base,
                                entries: Vec::new(),
                            }
                        } else {
                            *sent = (*sent).max(dict.len() as u32);
                            dict.delta_since(base)
                        };
                        len += 24 + entries_len(delta.entries.iter().map(String::as_str));
                        ColPlan::DictDelta(plan, delta)
                    }
                    None => {
                        // Dictionary page once, then the codes — the wire
                        // shape `layout::dict_bytes` accounts for.
                        // Self-contained: checkpoint/replay frames stay on
                        // this path even for persistent pages.
                        len += 4 + entries_len(dict.iter());
                        ColPlan::Dict(plan)
                    }
                }
            }
            Column::Opt { .. } => unreachable!("validity unwrapped above"),
        };
        plans.push(plan);
    }

    // Pass two: write.
    let start = buf.len();
    buf.reserve(len);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(rows as u32);
    put_int_page(buf, ts_plan, &batch.timestamps);
    for (col, plan) in batch.columns.iter().zip(plans) {
        // Presence flag: 1 = a validity byte per row precedes the payload.
        let (col, valid) = unwrap_opt(col);
        match valid {
            Some(valid) => {
                buf.put_u8(1);
                for v in valid {
                    buf.put_u8(u8::from(*v));
                }
            }
            None => buf.put_u8(0),
        }
        match (col, plan) {
            (Column::Bool(v), _) => {
                for b in v {
                    buf.put_u8(u8::from(*b));
                }
            }
            (Column::F64(v), _) => {
                for x in v {
                    buf.put_f64_le(*x);
                }
            }
            (Column::I64(v), ColPlan::Int(plan)) => put_int_page(buf, plan, v),
            (Column::U64(v), ColPlan::Int(plan)) => put_int_page(buf, plan, v),
            (Column::Str { offsets, data }, _) => {
                buf.put_u8(STR_PAGE_PLAIN);
                for w in offsets.windows(2) {
                    let (lo, hi) = (w[0] as usize, w[1] as usize);
                    buf.put_u16_le((hi - lo) as u16);
                    buf.put_slice(&data[lo..hi]);
                }
            }
            (Column::Dict { codes, .. }, ColPlan::DictDelta(plan, delta)) => {
                buf.put_u8(STR_PAGE_DICT_DELTA);
                buf.put_u64_le(delta.dict_id);
                buf.put_u32_le(delta.base);
                buf.put_u32_le(delta.entries.len() as u32);
                buf.put_u64_le(delta.checksum());
                put_entries(buf, delta.entries.iter().map(String::as_str));
                put_int_page(buf, plan, codes);
            }
            (Column::Dict { codes, dict }, ColPlan::Dict(plan)) => {
                buf.put_u8(STR_PAGE_DICT);
                buf.put_u32_le(dict.len() as u32);
                put_entries(buf, dict.iter());
                put_int_page(buf, plan, codes);
            }
            _ => unreachable!("pass one plans every column by its variant"),
        }
    }
    debug_assert_eq!(buf.len() - start, len, "planned length is exact");
}

/// Decodes a batch previously produced by [`encode_batch`] for `schema`.
/// Delta pages ([`encode_batch_with`]) are rejected with a typed error —
/// they need the link's [`DictRegistry`] (see [`decode_batch_with`]).
pub fn decode_batch(schema: SchemaRef, buf: Bytes) -> Result<Batch> {
    decode_batch_impl(schema, &buf, None)
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
    decode_batch_impl(schema, &buf, Some(registry))
}

/// Reads `n` dictionary entries (u16 length prefix, UTF-8 checked each).
fn get_entries(buf: &mut &[u8], n: usize, mut push: impl FnMut(&str)) -> Result<()> {
    for _ in 0..n {
        need(buf, 2)?;
        let len = buf.get_u16_le() as usize;
        need(buf, len)?;
        let entry = std::str::from_utf8(&buf[..len])
            .map_err(|e| Error::Decode(format!("invalid UTF-8 dict entry: {e}")))?;
        push(entry);
        buf.advance(len);
    }
    Ok(())
}

/// Reads a code page and checks every code against a dictionary of
/// `entries`. Null rows carry a code-0 filler that may point at an empty
/// dictionary; every valid row's code must land inside it.
fn get_codes(
    buf: &mut &[u8],
    rows: usize,
    entries: usize,
    valid: Option<&[bool]>,
) -> Result<Vec<u32>> {
    let codes = get_int_page::<u32>(buf, rows)?;
    for (row, &c) in codes.iter().enumerate() {
        let null_filler = c == 0 && valid.is_some_and(|v| !v[row]);
        if c as usize >= entries && !null_filler {
            return Err(Error::Decode(format!(
                "dict code {c} out of range ({entries} entries)"
            )));
        }
    }
    Ok(codes)
}

fn decode_batch_impl(
    schema: SchemaRef,
    mut buf: &[u8],
    mut registry: Option<&mut DictRegistry>,
) -> Result<Batch> {
    need(buf, 8)?;
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(Error::Decode(format!("bad magic {magic:#x}")));
    }
    let rows = buf.get_u32_le() as usize;
    // The timestamp page spends at least a byte a row, so a row count the
    // frame cannot back is refused here — before any page (a width-0 one
    // has no per-row bytes to run out of) is sized by it.
    need(buf, rows)?;
    let timestamps = get_int_page::<i64>(&mut buf, rows)?;
    let mut columns = Vec::with_capacity(schema.width());
    for field in schema.fields() {
        need(buf, 1)?;
        let valid = if buf.get_u8() != 0 {
            need(buf, rows)?;
            let (mask, rest) = buf.split_at(rows);
            buf = rest;
            Some(mask.iter().map(|&b| b != 0).collect::<Vec<_>>())
        } else {
            None
        };
        let col = match field.dtype {
            DataType::Bool => {
                need(buf, rows)?;
                let (page, rest) = buf.split_at(rows);
                buf = rest;
                Column::Bool(page.iter().map(|&b| b != 0).collect())
            }
            DataType::I32 | DataType::I64 => Column::I64(get_int_page(&mut buf, rows)?),
            DataType::U32 | DataType::U64 => Column::U64(get_int_page(&mut buf, rows)?),
            DataType::F64 => {
                need(buf, rows * 8)?;
                Column::F64((0..rows).map(|_| buf.get_f64_le()).collect())
            }
            DataType::Str => {
                need(buf, 1)?;
                match buf.get_u8() {
                    STR_PAGE_PLAIN => {
                        let mut offsets = Vec::with_capacity(rows + 1);
                        offsets.push(0u32);
                        let mut data = Vec::new();
                        for _ in 0..rows {
                            need(buf, 2)?;
                            let len = buf.get_u16_le() as usize;
                            need(buf, len)?;
                            data.extend_from_slice(&buf[..len]);
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
                        need(buf, 4)?;
                        let entries = buf.get_u32_le() as usize;
                        let mut dict = StrDict::new();
                        get_entries(&mut buf, entries, |e| {
                            dict.push(e);
                        })?;
                        let codes = get_codes(&mut buf, rows, entries, valid.as_deref())?;
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
                        need(buf, 24)?;
                        let dict_id = buf.get_u64_le();
                        let base = buf.get_u32_le();
                        let n_entries = buf.get_u32_le() as usize;
                        let expected_sum = buf.get_u64_le();
                        let mut entries = Vec::with_capacity(n_entries.min(1024));
                        get_entries(&mut buf, n_entries, |e| entries.push(e.to_string()))?;
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
                        let codes = get_codes(&mut buf, rows, dict.len(), valid.as_deref())?;
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
    let mut buf = BytesMut::default();
    encode_group_state_into(&mut buf, entries);
    buf.freeze()
}

/// Appends the [`encode_group_state`] bytes of `entries` to `buf`, so a
/// caller's envelope and the body share one buffer.
pub fn encode_group_state_into(buf: &mut BytesMut, entries: &[GroupPartialEntry]) {
    buf.reserve(32 * entries.len());
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
        raw.put_u8(1); // timestamp page: 1-byte offsets...
        raw.put_i64_le(0); // ...from base 0
        raw.put_slice(&[0, 1]);
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
        let flag_at = 4 + 4 + (1 + 8 + 2); // magic + rows + 1-byte-wide timestamp page
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

    /// Encoded length of a one-column `U64` batch over `values`, less the
    /// 8-byte header, the timestamp page and the column's presence byte —
    /// i.e. the column's integer page alone.
    fn u64_page_len(values: &[u64]) -> usize {
        let s = Schema::new(vec![Field::new("v", DataType::U64)]);
        let ts: Vec<i64> = (0..values.len() as i64).collect();
        let batch = Batch {
            schema: s.clone(),
            timestamps: ts.clone(),
            columns: vec![Column::U64(values.to_vec())],
        };
        let wire = encode_batch(&batch);
        assert_eq!(decode_batch(s, wire.clone()).unwrap(), batch);
        wire.len() - 8 - IntPlan::of(&ts, 1).len::<i64>(ts.len()) - 1
    }

    #[test]
    fn integer_pages_take_the_narrowest_width_and_never_exceed_raw() {
        let n = 10;
        let page = |span: u64| {
            let values: Vec<u64> = (0..n).map(|i| (1 << 63) + (i % 2) * span).collect();
            u64_page_len(&values)
        };
        // tag + base + rows × width, the width stepping with the span.
        assert_eq!(page(0), 1 + 8);
        assert_eq!(page(0xFF), 1 + 8 + 10);
        assert_eq!(page(0x100), 1 + 8 + 20);
        assert_eq!(page(0x1_0000), 1 + 8 + 40);
        // Past 32 bits of span the page is the raw values, no base.
        assert_eq!(page(0x1_0000_0000), 1 + 80);
        // Too few rows for a base to pay off: raw, so a page never costs
        // more than its width tag over the fixed-width encoding.
        assert_eq!(u64_page_len(&[7]), 1 + 8);
        assert_eq!(u64_page_len(&[]), 1);
        // Timestamps: never narrower than a byte a row.
        assert_eq!(IntPlan::of(&[5i64; 10], 1).width, 1);
        assert_eq!(IntPlan::of(&[i64::MIN, i64::MAX], 1).width, 8);
        assert_eq!(IntPlan::of(&[-3i64, 200, 7], 1).width, 1);
        // Codes: no base, width from the largest code.
        assert_eq!(IntPlan::of(&[0u32, 255], 0).len::<u32>(2), 1 + 2);
        assert_eq!(IntPlan::of(&[0u32, 256], 0).len::<u32>(2), 1 + 4);
        assert_eq!(IntPlan::of(&[0u32, 0], 0).len::<u32>(2), 1);
    }

    #[test]
    fn bad_width_tags_and_unbacked_row_counts_are_typed_errors() {
        let s = Schema::new(vec![Field::new("v", DataType::U64)]);
        let frame = |rows: u32, ts_page: &[u8], col_page: &[u8]| {
            let mut raw = BytesMut::default();
            raw.put_u32_le(super::MAGIC);
            raw.put_u32_le(rows);
            raw.put_slice(ts_page);
            raw.put_u8(0); // dense
            raw.put_slice(col_page);
            decode_batch(s.clone(), raw.freeze())
        };
        let ts = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]; // width 1, base 0, offsets 0 and 1
        let constant = [0, 9, 0, 0, 0, 0, 0, 0, 0]; // width 0, base 9
        assert_eq!(
            frame(2, &ts, &constant).unwrap().columns[0],
            Column::U64(vec![9, 9])
        );
        // A width that is no power of two up to 8.
        let mut bad = constant;
        bad[0] = 3;
        assert!(matches!(frame(2, &ts, &bad), Err(Error::Decode(_))));
        // A page shorter than its rows.
        assert!(matches!(
            frame(2, &ts, &[1, 9, 0, 0, 0, 0, 0, 0, 0, 5]),
            Err(Error::Decode(_))
        ));
        // A forged row count over constant pages: nothing runs short, so
        // the count must be refused before it sizes an allocation.
        assert!(matches!(
            frame(u32::MAX, &constant, &constant),
            Err(Error::Decode(_))
        ));
        // A code page wider than a code.
        let t = Schema::new(vec![Field::new("t", DataType::Str)]);
        let mut raw = BytesMut::default();
        raw.put_u32_le(super::MAGIC);
        raw.put_u32_le(0);
        raw.put_slice(&[8, 0, super::STR_PAGE_DICT]);
        raw.put_u32_le(0);
        raw.put_u8(8);
        assert!(matches!(
            decode_batch(t, raw.freeze()),
            Err(Error::Decode(_))
        ));
    }

    #[test]
    fn out_of_range_dict_code_rejected() {
        let s = Schema::new(vec![Field::new("t", DataType::Str)]);
        let mut b = crate::batch::DictBuilder::new(2);
        b.push("x");
        b.push("y");
        let batch = Batch {
            schema: s.clone(),
            timestamps: vec![0, 1],
            columns: vec![b.finish()],
        };
        let mut raw = encode_batch(&batch).to_vec();
        // The code page closes the frame: width tag 1, then codes 0 and 1.
        // Point the last one past the dictionary.
        let n = raw.len();
        assert_eq!(raw[n - 3..], [1, 0, 1]);
        raw[n - 1] = 9;
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
        // code page (width tag + two 1-byte codes); flip a bit in the last
        // entry's payload.
        assert_eq!(raw[n - 4], b'b');
        raw[n - 4] ^= 0x01;
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
