//! Wire encoding for batches and shipped group state.
//!
//! A compact, length-prefixed little-endian format standing in for the Kryo
//! serialisation the paper's implementation uses between MiNiFi and NiFi.
//!
//! This is what the live system *ships*; what links are *charged* is
//! [`Batch::wire_size`] (`batch::layout`, the paper-calibrated accounting
//! model), which this module neither reads nor moves.
//!
//! ```text
//! batch    := magic u32 | rows u32 | ts-page | column*
//! ts-page  := int-page(timestamps), never narrower than 1 B a row
//!           | 0x80 | first timestamp i64 | (rows − 1) × LEB128 u64 step
//! column   := flags u8 | validity (flag bit 0: rows × u8) | payload
//! flags    := bit 0 validity follows | bit 1 the F64 payload is an int-page
//!             (other bits, and bit 1 on any other type, are refused)
//! payload  := Bool: rows × u8 | I64/U64: int-page
//!           | F64: rows × 8 B raw bits, or (flag bit 1) int-page of i64
//!           | Str: page-tag u8, then int-page(lengths) and the bytes, or
//!             a dictionary / delta page followed by int-page(codes)
//! int-page := width u8 ∈ {0, 1, 2, 4, 8} | base 8 B (values, width < 8)
//!           | rows × width little-endian offsets from the base
//!
//! state    := run*
//! run      := arity u16 | key-kind u8 × arity | aggs u16 | agg-tag u8 × aggs
//!           | batch | sketch*
//! sketch   := q, lo, hi as f64 | buckets u32 | buckets × u64
//!           | underflow u64 | overflow u64 | total u64
//! ```
//!
//! An integer page is byte-aligned frame of reference, sized by content: the
//! width is the narrowest that holds `max − min` of the page (wrapping, so
//! sign-straddling `i64` and `u64 ≥ 2^63` ranges work alike), the base is the
//! minimum, width 8 is the raw values with no base, and the encoder falls
//! back to width 8 whenever base + offsets would not be smaller. Dictionary
//! codes and plain-string lengths count from 0, so their pages carry no base
//! and take their width (at most 4) from the largest value.
//!
//! A timestamp page has a second form, and only a timestamp page: when the
//! timestamps never decrease, the first ships as 8 bytes and every later one
//! as its step from the one before, an unsigned LEB128 varint — a byte for a
//! step under 128, so pages that a chunk of source-ordered rows makes cost a
//! byte or two a row whatever their span. The encoder takes it only when it
//! is strictly shorter than the frame-of-reference page, so no page grows.
//! Either form spends at least a byte a row (the frame-of-reference page is
//! never narrower than 1 byte; the delta page spends 8 on its first row), so
//! every row of a frame is backed by a wire byte and a forged row count
//! cannot size an allocation the frame does not pay for. The decoder checks
//! the base and a byte per step before it allocates, and refuses a varint
//! that is truncated, longer than ten bytes, past `u64` or ends in a
//! redundant zero group, and steps whose sum leaves `i64`.
//!
//! An `F64` page ships as an `i64` integer page when every value `x` is an
//! integer that survives `x as i64 as f64` bit for bit, and that page comes
//! out smaller than the raw one; the decoder maps each `i` back to
//! `i as f64`. The one test leaves out `−0.0`, NaN, ±inf and fractions by
//! construction (`2^63`, which saturates to `i64::MAX`, maps back to
//! itself), so the round trip is bit-exact. Every other page is the raw
//! 8-byte bits, unchanged from before integer pages existed.
//!
//! Group state ships as columns. A state body is a sequence of runs, one
//! per maximal stretch of entries that share a shape: key arity, the
//! variant of each key column (a `Null` fits any) and the aggregate tags.
//! Every partial an operator builds is one run, unless its entries are
//! wider than the slot bound below allows. A run's batch carries the
//! window starts as its timestamps, one column per key column that is not
//! all `Null` (nulls as validity bytes; strings dictionary-encoded per run,
//! or as a plain page when a value outgrows the u16 entry length), then
//! one column per state component: `Count` a `U64` page, `Sum` / `Min` /
//! `Max` an `F64` page, `Avg` both. Integer inputs make integer
//! accumulators, whose pages narrow like any other integer page; a page
//! holding a non-finite accumulator (a `Min` that never saw a value is
//! `+inf`) goes raw and round-trips exactly all the same. `Quantile`
//! sketches follow the batch, entry by entry, in aggregate order.
//!
//! An entry's key is a [`GroupKey`], the canonical encoding
//! ([`crate::shard`]), and a key kind is the canonical variant tag. The
//! encoder reads a run's shape off the key bytes and builds all its key
//! columns in one pass over them, a fixed-width value copied as its
//! payload word; the decoder writes each entry's key straight off the
//! decoded columns with [`encode_col_value`]. No key becomes a `Value` on
//! either side, and the bytes are those `Value` keys produced.
//!
//! Each entry of a run holds one slot per key column and one per
//! aggregate, and columns can ship slots for next to nothing: an all-`Null`
//! key column has no page, a constant `Count` column a width-0 one. So a
//! run may claim at most eight slots per byte of its shape and
//! its entries (`rows × slots ≤ 8 × (4 + slots + rows)`), and the decoder
//! refuses a run that claims more before anything is sized by it: a body of
//! n bytes decodes into at most 8n slots. Entries of at most eight slots
//! never meet the bound; the encoder cuts wider ones into runs of eight.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::agg::AggState;
use crate::batch::{
    Batch, Column, ColumnBuilder, DictBuilder, DictDelta, DictRegistry, DictVersions, StrDict,
};
use crate::error::{Error, Result};
use crate::ops::{GroupKey, GroupPartialEntry};
use crate::quantile::QuantileSketch;
use crate::schema::{DataType, SchemaRef};
use crate::shard::{
    decode_value, encode_col_value, Decoded, BOOL_TAG, F64_TAG, I64_TAG, NULL_TAG, STR_HEADER,
    STR_TAG, U64_TAG,
};

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

/// Column flag: a validity byte per row precedes the payload.
const FLAG_VALID: u8 = 1;
/// Column flag: the `F64` payload is an integer page of `i64`s.
const FLAG_INT_F64: u8 = 2;

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
    /// One pass over `values`, then [`IntPlan::over`] their range.
    fn of<T: PageInt>(values: &[T], floor: usize) -> IntPlan {
        // An empty page runs through the same rule: span 0, and a base
        // would not pay for itself, so values go raw and codes take `floor`.
        let first = values.first().copied().unwrap_or(T::from_bits(0));
        let (lo, hi) = values
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        IntPlan::over::<T>(lo, hi, values.len(), floor)
    }

    /// The narrowest width (not below `floor`) that holds `hi − base` for
    /// `rows` values in `lo..=hi`, or the raw width 8 when that would not be
    /// smaller.
    fn over<T: PageInt>(lo: T, hi: T, rows: usize, floor: usize) -> IntPlan {
        let base = if T::BASED { lo.bits() } else { 0 };
        let width = match hi.bits().wrapping_sub(base) {
            0 => 0,
            1..=0xFF => 1,
            0x100..=0xFFFF => 2,
            0x1_0000..=0xFFFF_FFFF => 4,
            _ => 8,
        }
        .max(floor);
        if T::BASED && 8 + rows * width > rows * 8 {
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
fn pack<const W: usize, T: PageInt>(out: &mut [u8], base: u64, values: impl Iterator<Item = T>) {
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

/// The integer-page writer: timestamps, `I64`, `U64`, integral `F64`s and
/// dictionary codes all go through here.
fn put_int_page<T: PageInt>(
    buf: &mut BytesMut,
    plan: IntPlan,
    values: impl ExactSizeIterator<Item = T>,
) {
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

/// Width byte of a timestamp page in delta form. No integer page has this
/// width, so it is refused everywhere but in front of a batch's timestamps.
const TS_DELTA: u8 = 0x80;

/// Longest LEB128 varint of a `u64`: ten 7-bit groups, the last holding 1 bit.
const VARINT_MAX: usize = 10;

/// The form the encoder chose for one timestamp page.
#[derive(Debug, Clone, Copy)]
enum TsPlan {
    /// Frame of reference, never narrower than a byte a row.
    Int(IntPlan),
    /// [`TS_DELTA`], the first timestamp, then a varint step per later row;
    /// the page's encoded length.
    Delta(usize),
}

impl TsPlan {
    /// The delta form when the timestamps never decrease and it is strictly
    /// shorter, else the frame-of-reference page; see the module doc.
    fn of(timestamps: &[i64]) -> TsPlan {
        let int = IntPlan::of(timestamps, 1);
        match delta_page_len(timestamps) {
            Some(len) if len < int.len::<i64>(timestamps.len()) => TsPlan::Delta(len),
            _ => TsPlan::Int(int),
        }
    }

    /// Encoded length of the page over `rows` timestamps.
    fn len(&self, rows: usize) -> usize {
        match self {
            TsPlan::Int(plan) => plan.len::<i64>(rows),
            TsPlan::Delta(len) => *len,
        }
    }
}

/// Bytes of `v` as a LEB128 varint.
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Length of `timestamps` as a delta page, or `None` when there are none or
/// they ever decrease.
fn delta_page_len(timestamps: &[i64]) -> Option<usize> {
    let (&first, rest) = timestamps.split_first()?;
    let mut len = 1 + 8;
    let mut prev = first;
    for &t in rest {
        if t < prev {
            return None;
        }
        len += varint_len(t.wrapping_sub(prev) as u64);
        prev = t;
    }
    Some(len)
}

/// The timestamp-page writer, in the form `plan` chose.
fn put_ts_page(buf: &mut BytesMut, plan: TsPlan, timestamps: &[i64]) {
    let len = match plan {
        TsPlan::Int(plan) => return put_int_page(buf, plan, timestamps.iter().copied()),
        TsPlan::Delta(len) => len,
    };
    buf.put_u8(TS_DELTA);
    buf.put_i64_le(timestamps[0]);
    let start = buf.len();
    buf.resize(start + len - (1 + 8), 0);
    let mut at = start;
    for step in timestamps.windows(2) {
        let mut v = step[1].wrapping_sub(step[0]) as u64;
        while v >= 0x80 {
            buf[at] = v as u8 | 0x80;
            v >>= 7;
            at += 1;
        }
        buf[at] = v as u8;
        at += 1;
    }
    debug_assert_eq!(at, buf.len(), "planned delta page length is exact");
}

/// Reads one LEB128 varint, refusing one that runs past the buffer, past
/// ten bytes or past `u64`, or that ends in a redundant zero group, so each
/// step has exactly one encoding.
fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut v = 0u64;
    for i in 0..VARINT_MAX {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(Error::Decode("truncated timestamp delta".into()));
        };
        *buf = rest;
        if i == VARINT_MAX - 1 && byte > 1 {
            return Err(Error::Decode("timestamp delta overflows u64".into()));
        }
        v |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            if byte == 0 && i > 0 {
                return Err(Error::Decode("overlong timestamp delta".into()));
            }
            return Ok(v);
        }
    }
    unreachable!("the tenth byte either ends the varint or is refused")
}

/// The timestamp-page reader, inverse of [`put_ts_page`]. A delta page's
/// base and one byte per step are checked before anything is allocated.
fn get_ts_page(buf: &mut &[u8], rows: usize) -> Result<Vec<i64>> {
    if buf.first() != Some(&TS_DELTA) {
        return get_int_page::<i64>(buf, rows);
    }
    let steps = rows
        .checked_sub(1)
        .ok_or_else(|| Error::Decode("delta timestamp page of no rows".into()))?;
    need(buf, 1 + 8 + steps)?;
    buf.advance(1);
    let mut t = buf.get_i64_le();
    let mut out = Vec::with_capacity(rows);
    out.push(t);
    for _ in 0..steps {
        let step = get_varint(buf)?;
        t = t
            .checked_add_unsigned(step)
            .ok_or_else(|| Error::Decode("timestamp deltas overflow i64".into()))?;
        out.push(t);
    }
    Ok(out)
}

/// The `i64` range of an `F64` page whose every value survives
/// `x as i64 as f64` bit for bit, or `None`; see the module doc.
fn integral_range(values: &[f64]) -> Option<(i64, i64)> {
    let mut range = (i64::MAX, i64::MIN);
    for &x in values {
        let i = x as i64;
        if (i as f64).to_bits() != x.to_bits() {
            return None;
        }
        range = (range.0.min(i), range.1.max(i));
    }
    Some(range)
}

/// What the planning pass decided about one column; the writing pass only
/// writes.
enum ColPlan {
    /// `Bool`, and `F64` pages that go raw: nothing to choose.
    Fixed,
    /// `I64` / `U64`, and `F64` pages of integers.
    Int(IntPlan),
    /// Plain `Str`: the length page (lengths kept for the writing pass),
    /// then the bytes.
    Plain(IntPlan, Vec<u32>),
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
pub fn encode_batch_into(buf: &mut BytesMut, batch: &Batch, link: Option<&mut DictVersions>) {
    encode_columns_into(buf, &batch.timestamps, &batch.columns, link);
}

/// The batch writer over its parts: `timestamps` and one column per field.
fn encode_columns_into(
    buf: &mut BytesMut,
    timestamps: &[i64],
    columns: &[Column],
    mut link: Option<&mut DictVersions>,
) {
    let rows = timestamps.len();
    // Pass one: choose every width and dictionary page, summing the length.
    let ts_plan = TsPlan::of(timestamps);
    let mut len = 8 + ts_plan.len(rows);
    let mut plans = Vec::with_capacity(columns.len());
    for col in columns {
        let (col, valid) = unwrap_opt(col);
        len += 1 + valid.map_or(0, |_| rows);
        let plan = match col {
            Column::Bool(_) => {
                len += rows;
                ColPlan::Fixed
            }
            Column::F64(v) => {
                let plan = integral_range(v).map(|(lo, hi)| IntPlan::over(lo, hi, rows, 0));
                match plan.filter(|p| p.len::<i64>(rows) < rows * 8) {
                    Some(plan) => {
                        len += plan.len::<i64>(rows);
                        ColPlan::Int(plan)
                    }
                    None => {
                        len += rows * 8;
                        ColPlan::Fixed
                    }
                }
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
                let lens: Vec<u32> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
                let plan = IntPlan::of(&lens, 0);
                let bytes = offsets.last().map_or(0, |hi| hi - offsets[0]) as usize;
                len += 1 + plan.len::<u32>(rows) + bytes;
                ColPlan::Plain(plan, lens)
            }
            Column::Dict { codes, dict } => {
                let plan = IntPlan::of(codes, 0);
                len += 1 + plan.len::<u32>(rows);
                match link.as_deref_mut().filter(|_| dict.id() != 0) {
                    Some(link) => {
                        // Persistent page on an established link: ship only
                        // the delta past the receiver's mirrored version.
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
    put_ts_page(buf, ts_plan, timestamps);
    for (col, plan) in columns.iter().zip(plans) {
        let (col, valid) = unwrap_opt(col);
        let int_f64 = matches!((col, &plan), (Column::F64(_), ColPlan::Int(_)));
        buf.put_u8(
            if valid.is_some() { FLAG_VALID } else { 0 } | if int_f64 { FLAG_INT_F64 } else { 0 },
        );
        for v in valid.into_iter().flatten() {
            buf.put_u8(u8::from(*v));
        }
        match (col, plan) {
            (Column::Bool(v), _) => {
                for b in v {
                    buf.put_u8(u8::from(*b));
                }
            }
            (Column::F64(v), ColPlan::Int(plan)) => {
                put_int_page(buf, plan, v.iter().map(|&x| x as i64));
            }
            (Column::F64(v), _) => {
                for x in v {
                    buf.put_f64_le(*x);
                }
            }
            (Column::I64(v), ColPlan::Int(plan)) => put_int_page(buf, plan, v.iter().copied()),
            (Column::U64(v), ColPlan::Int(plan)) => put_int_page(buf, plan, v.iter().copied()),
            (Column::Str { offsets, data }, ColPlan::Plain(plan, lens)) => {
                buf.put_u8(STR_PAGE_PLAIN);
                put_int_page(buf, plan, lens.into_iter());
                if let (Some(&lo), Some(&hi)) = (offsets.first(), offsets.last()) {
                    buf.put_slice(&data[lo as usize..hi as usize]);
                }
            }
            (Column::Dict { codes, .. }, ColPlan::DictDelta(plan, delta)) => {
                buf.put_u8(STR_PAGE_DICT_DELTA);
                buf.put_u64_le(delta.dict_id);
                buf.put_u32_le(delta.base);
                buf.put_u32_le(delta.entries.len() as u32);
                buf.put_u64_le(delta.checksum());
                put_entries(buf, delta.entries.iter().map(String::as_str));
                put_int_page(buf, plan, codes.iter().copied());
            }
            (Column::Dict { codes, dict }, ColPlan::Dict(plan)) => {
                buf.put_u8(STR_PAGE_DICT);
                buf.put_u32_le(dict.len() as u32);
                put_entries(buf, dict.iter());
                put_int_page(buf, plan, codes.iter().copied());
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
    registry: Option<&mut DictRegistry>,
) -> Result<Batch> {
    let dtypes = schema.fields().iter().map(|f| f.dtype);
    let (timestamps, columns) = decode_columns(&mut buf, dtypes, registry)?;
    Ok(Batch {
        schema,
        timestamps,
        columns,
    })
}

/// The batch reader, inverse of [`encode_columns_into`]: the timestamps and
/// one column per `dtypes` entry, leaving `buf` just past the batch.
fn decode_columns(
    cursor: &mut &[u8],
    dtypes: impl ExactSizeIterator<Item = DataType>,
    mut registry: Option<&mut DictRegistry>,
) -> Result<(Vec<i64>, Vec<Column>)> {
    let mut buf = *cursor;
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
    let timestamps = get_ts_page(&mut buf, rows)?;
    let mut columns = Vec::with_capacity(dtypes.len());
    for dtype in dtypes {
        need(buf, 1)?;
        let flags = buf.get_u8();
        let int_f64 = flags & FLAG_INT_F64 != 0;
        if flags & !(FLAG_VALID | FLAG_INT_F64) != 0 || (int_f64 && dtype != DataType::F64) {
            return Err(Error::Decode(format!(
                "bad column flags {flags:#04x} on a {dtype:?} column"
            )));
        }
        let valid = if flags & FLAG_VALID != 0 {
            need(buf, rows)?;
            let (mask, rest) = buf.split_at(rows);
            buf = rest;
            Some(mask.iter().map(|&b| b != 0).collect::<Vec<_>>())
        } else {
            None
        };
        let col = match dtype {
            DataType::Bool => {
                need(buf, rows)?;
                let (page, rest) = buf.split_at(rows);
                buf = rest;
                Column::Bool(page.iter().map(|&b| b != 0).collect())
            }
            DataType::I32 | DataType::I64 => Column::I64(get_int_page(&mut buf, rows)?),
            DataType::U32 | DataType::U64 => Column::U64(get_int_page(&mut buf, rows)?),
            DataType::F64 if int_f64 => Column::F64(
                get_int_page::<i64>(&mut buf, rows)?
                    .into_iter()
                    .map(|i| i as f64)
                    .collect(),
            ),
            DataType::F64 => {
                need(buf, rows * 8)?;
                Column::F64((0..rows).map(|_| buf.get_f64_le()).collect())
            }
            DataType::Str => {
                need(buf, 1)?;
                match buf.get_u8() {
                    STR_PAGE_PLAIN => {
                        let lens = get_int_page::<u32>(&mut buf, rows)?;
                        let mut offsets = Vec::with_capacity(rows + 1);
                        offsets.push(0u32);
                        let mut end = 0u32;
                        for len in lens {
                            end = end.checked_add(len).ok_or_else(|| {
                                Error::Decode("plain string page overflows u32 offsets".into())
                            })?;
                            offsets.push(end);
                        }
                        need(buf, end as usize)?;
                        let (data, rest) = buf.split_at(end as usize);
                        buf = rest;
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
                            data: Bytes::from(data.to_vec()),
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
    *cursor = buf;
    Ok((timestamps, columns))
}

/// Key-column kinds of a state run: the canonical encoding's variant tags
/// ([`crate::shard`]), so a key's fragment names its column's kind. A
/// `Null` column has no page: every entry of the run holds `Null` there.
const KEY_NULL: u8 = NULL_TAG;
const KEY_BOOL: u8 = BOOL_TAG;
const KEY_I64: u8 = I64_TAG;
const KEY_U64: u8 = U64_TAG;
const KEY_F64: u8 = F64_TAG;
const KEY_STR: u8 = STR_TAG;

/// Aggregate-state tags of a state run.
const AGG_COUNT: u8 = 0;
const AGG_SUM: u8 = 1;
const AGG_MIN: u8 = 2;
const AGG_MAX: u8 = 3;
const AGG_AVG: u8 = 4;
const AGG_QUANTILE: u8 = 5;

/// The most slots (key values and aggregate states) a state run may claim
/// per byte of its shape and entries; see the module doc.
const SLOTS_PER_BYTE: usize = 8;

/// The column type a key kind ships as; `None` for an all-`Null` column,
/// which ships no page.
fn key_dtype(kind: u8) -> Result<Option<DataType>> {
    Ok(match kind {
        KEY_NULL => None,
        KEY_BOOL => Some(DataType::Bool),
        KEY_I64 => Some(DataType::I64),
        KEY_U64 => Some(DataType::U64),
        KEY_F64 => Some(DataType::F64),
        KEY_STR => Some(DataType::Str),
        _ => return Err(Error::Decode(format!("unknown key kind {kind}"))),
    })
}

fn agg_tag(state: &AggState) -> u8 {
    match state {
        AggState::Count(_) => AGG_COUNT,
        AggState::Sum(_) => AGG_SUM,
        AggState::Min(_) => AGG_MIN,
        AggState::Max(_) => AGG_MAX,
        AggState::Avg { .. } => AGG_AVG,
        AggState::Quantile { .. } => AGG_QUANTILE,
    }
}

/// The `F64` and `U64` components a state ships in its run's columns; a
/// `Quantile` ships neither, its sketch follows the batch.
fn components(state: &AggState) -> (Option<f64>, Option<u64>) {
    match state {
        AggState::Count(c) => (None, Some(*c)),
        AggState::Sum(x) | AggState::Min(x) | AggState::Max(x) => (Some(*x), None),
        AggState::Avg { sum, count } => (Some(*sum), Some(*count)),
        AggState::Quantile { .. } => (None, None),
    }
}

/// Encodes shipped group-aggregation state as columnar runs (the module
/// doc's `state`).
pub fn encode_group_state(entries: &[GroupPartialEntry]) -> Bytes {
    let mut buf = BytesMut::default();
    encode_group_state_into(&mut buf, entries);
    buf.freeze()
}

/// Appends the [`encode_group_state`] bytes of `entries` to `buf`, so a
/// caller's envelope and the body share one buffer.
pub fn encode_group_state_into(buf: &mut BytesMut, entries: &[GroupPartialEntry]) {
    let mut rest = entries;
    while !rest.is_empty() {
        let slots = rest[0].key.arity() + rest[0].states.len();
        let most = if slots > SLOTS_PER_BYTE {
            SLOTS_PER_BYTE
        } else {
            rest.len()
        };
        let (kinds, len) = run_shape(&rest[..most.min(rest.len())]);
        put_run(buf, &kinds, &rest[..len]);
        rest = &rest[len..];
    }
}

/// The key kinds of the longest non-empty prefix of `entries` that shares
/// one shape, and that prefix's length. A key column takes the variant of
/// its first non-`Null` value, and a `Null` fits any variant.
fn run_shape(entries: &[GroupPartialEntry]) -> (Vec<u8>, usize) {
    let first = &entries[0];
    let mut kinds: Vec<u8> = first.key.fragments().map(|f| f[0]).collect();
    let mut len = 1;
    for entry in &entries[1..] {
        let fits = entry.key.arity() == kinds.len()
            && entry.states.len() == first.states.len()
            && entry
                .states
                .iter()
                .zip(&first.states)
                .all(|(a, b)| agg_tag(a) == agg_tag(b))
            && entry.key.fragments().zip(&kinds).all(|(f, &kind)| {
                let k = f[0];
                k == KEY_NULL || kind == KEY_NULL || k == kind
            });
        if !fits {
            break;
        }
        if kinds.contains(&KEY_NULL) {
            for (f, kind) in entry.key.fragments().zip(&mut kinds) {
                if *kind == KEY_NULL {
                    *kind = f[0];
                }
            }
        }
        len += 1;
    }
    (kinds, len)
}

/// Writes one run: its shape, its batch, then its sketches.
fn put_run(buf: &mut BytesMut, kinds: &[u8], run: &[GroupPartialEntry]) {
    let aggs = &run[0].states;
    buf.put_u16_le(kinds.len() as u16);
    buf.put_slice(kinds);
    buf.put_u16_le(aggs.len() as u16);
    for state in aggs {
        buf.put_u8(agg_tag(state));
    }
    let window_starts: Vec<i64> = run.iter().map(|e| e.window_start).collect();
    let mut columns = Vec::with_capacity(kinds.len() + aggs.len());
    key_columns(kinds, run, &mut columns);
    for (a, state) in aggs.iter().enumerate() {
        let (float, int) = components(state);
        if float.is_some() {
            let v = run
                .iter()
                .map(|e| components(&e.states[a]).0.unwrap_or(0.0));
            columns.push(Column::F64(v.collect()));
        }
        if int.is_some() {
            let v = run.iter().map(|e| components(&e.states[a]).1.unwrap_or(0));
            columns.push(Column::U64(v.collect()));
        }
    }
    encode_columns_into(buf, &window_starts, &columns, None);
    for entry in run {
        for state in &entry.states {
            if let AggState::Quantile { q, sketch } = state {
                let (lo, hi, counts, underflow, overflow, total) = sketch.to_parts();
                for x in [*q, lo, hi] {
                    buf.put_f64_le(x);
                }
                buf.put_u32_le(counts.len() as u32);
                for c in counts.iter().chain(&[underflow, overflow, total]) {
                    buf.put_u64_le(*c);
                }
            }
        }
    }
}

/// Appends a run's key columns to `columns`, one per kind that has a type,
/// reading each key's fragments once, in key order. A fixed-width value
/// is kept as its payload word until the column is built; nulls become
/// validity bytes; strings are dictionary-encoded by the rule of
/// [`Column::dict_encode`], unless a value outgrows a dictionary entry.
fn key_columns(kinds: &[u8], run: &[GroupPartialEntry], columns: &mut Vec<Column>) {
    enum Builder {
        Words {
            kind: u8,
            words: Vec<u64>,
            valid: Option<Vec<bool>>,
        },
        Dict(DictBuilder),
        Plain(ColumnBuilder),
    }
    let mut dict = vec![true; kinds.len()];
    if kinds.contains(&KEY_STR) {
        for entry in run {
            for (fits, f) in dict.iter_mut().zip(entry.key.fragments()) {
                *fits &= f.len() <= STR_HEADER + u16::MAX as usize;
            }
        }
    }
    let mut builders: Vec<Option<Builder>> = kinds
        .iter()
        .zip(dict)
        .map(|(&kind, dict)| match kind {
            KEY_NULL => None,
            KEY_STR if dict => Some(Builder::Dict(DictBuilder::new(run.len()))),
            KEY_STR => Some(Builder::Plain(ColumnBuilder::new(DataType::Str, run.len()))),
            _ => Some(Builder::Words {
                kind,
                words: Vec::with_capacity(run.len()),
                valid: None,
            }),
        })
        .collect();
    for entry in run {
        for (builder, mut f) in builders.iter_mut().zip(entry.key.fragments()) {
            match builder {
                Some(Builder::Words { words, valid, .. }) => {
                    let word = match f[0] {
                        KEY_NULL => None,
                        KEY_BOOL => Some(u64::from(f[1])),
                        _ => Some(u64::from_le_bytes(
                            f[1..].try_into().expect("8-byte payload"),
                        )),
                    };
                    match valid {
                        Some(valid) => valid.push(word.is_some()),
                        None if word.is_none() => {
                            let mut v = vec![true; words.len()];
                            v.push(false);
                            *valid = Some(v);
                        }
                        None => {}
                    }
                    words.push(word.unwrap_or(0));
                }
                Some(Builder::Dict(col)) => match decode_value(&mut f) {
                    Decoded::Str(s) => col.push(s),
                    Decoded::Scalar(_) => col.push_null(),
                },
                Some(Builder::Plain(col)) => match decode_value(&mut f) {
                    Decoded::Str(s) => col.push_str(s).expect("a string column"),
                    Decoded::Scalar(_) => col.push_null(),
                },
                None => {}
            }
        }
    }
    columns.extend(builders.into_iter().flatten().map(|b| match b {
        Builder::Words { kind, words, valid } => {
            let dense = match kind {
                KEY_BOOL => Column::Bool(words.iter().map(|&w| w != 0).collect()),
                KEY_I64 => Column::I64(words.into_iter().map(|w| w as i64).collect()),
                KEY_U64 => Column::U64(words),
                _ => Column::F64(words.into_iter().map(f64::from_bits).collect()),
            };
            match valid {
                Some(valid) => Column::Opt {
                    valid,
                    values: Box::new(dense),
                },
                None => dense,
            }
        }
        Builder::Dict(col) => col.finish(),
        Builder::Plain(col) => col.finish(),
    }));
}

/// Decodes group-aggregation state produced by [`encode_group_state`].
pub fn decode_group_state(buf: Bytes) -> Result<Vec<GroupPartialEntry>> {
    let mut buf: &[u8] = &buf;
    let mut entries = Vec::new();
    let mut key = Vec::new();
    while !buf.is_empty() {
        get_run(&mut buf, &mut entries, &mut key)?;
    }
    Ok(entries)
}

/// One aggregate's columns in a decoded run.
enum StateCol {
    Count(Vec<u64>),
    Float(fn(f64) -> AggState, Vec<f64>),
    Avg(Vec<f64>, Vec<u64>),
    Quantile,
}

/// Reads one run, inverse of [`put_run`], appending its entries to `out`.
/// Each entry's key is written into `key`, the canonical encoding straight
/// off the decoded columns, and copied into its [`GroupKey`].
fn get_run(buf: &mut &[u8], out: &mut Vec<GroupPartialEntry>, key: &mut Vec<u8>) -> Result<()> {
    need(buf, 2)?;
    let arity = buf.get_u16_le() as usize;
    need(buf, arity + 2)?;
    let (kinds, rest) = buf.split_at(arity);
    *buf = rest;
    let n_aggs = buf.get_u16_le() as usize;
    need(buf, n_aggs)?;
    let (tags, rest) = buf.split_at(n_aggs);
    *buf = rest;
    // The batch's rows u32 sits after its magic. Bound the run's slots by
    // the bytes its shape and timestamp page spend (the module doc's
    // slot bound) before the batch is decoded, as its pages may be width 0.
    need(buf, 8)?;
    let rows = u64::from(u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")));
    let slots = (arity + n_aggs) as u64;
    if rows * slots > SLOTS_PER_BYTE as u64 * (4 + slots + rows) {
        return Err(Error::Decode(format!(
            "state run of {rows} entries × {slots} slots outgrows its bytes"
        )));
    }
    let mut dtypes = Vec::with_capacity(arity + 2 * n_aggs);
    for &kind in kinds {
        dtypes.extend(key_dtype(kind)?);
    }
    for &tag in tags {
        match tag {
            AGG_COUNT => dtypes.push(DataType::U64),
            AGG_SUM | AGG_MIN | AGG_MAX => dtypes.push(DataType::F64),
            AGG_AVG => dtypes.extend([DataType::F64, DataType::U64]),
            AGG_QUANTILE => {}
            _ => return Err(Error::Decode(format!("unknown agg-state tag {tag}"))),
        }
    }
    // The batch's timestamp page backs every entry with a wire byte, so the
    // entry count is checked before any page is sized by it.
    let (window_starts, columns) = decode_columns(buf, dtypes.into_iter(), None)?;
    if window_starts.is_empty() {
        return Err(Error::Decode("empty state run".into()));
    }
    let mut columns = columns.into_iter();
    let mut keys = Vec::with_capacity(arity);
    for &kind in kinds {
        keys.push(match kind {
            KEY_NULL => None,
            _ => Some(next_column(&mut columns)?),
        });
    }
    let mut aggs = Vec::with_capacity(n_aggs);
    for &tag in tags {
        aggs.push(match tag {
            AGG_COUNT => StateCol::Count(dense_u64(next_column(&mut columns)?)?),
            AGG_SUM => StateCol::Float(AggState::Sum, dense_f64(next_column(&mut columns)?)?),
            AGG_MIN => StateCol::Float(AggState::Min, dense_f64(next_column(&mut columns)?)?),
            AGG_MAX => StateCol::Float(AggState::Max, dense_f64(next_column(&mut columns)?)?),
            AGG_AVG => StateCol::Avg(
                dense_f64(next_column(&mut columns)?)?,
                dense_u64(next_column(&mut columns)?)?,
            ),
            _ => StateCol::Quantile,
        });
    }
    out.reserve(window_starts.len());
    for (row, window_start) in window_starts.into_iter().enumerate() {
        key.clear();
        for col in &keys {
            match col {
                Some(col) => encode_col_value(key, col, row),
                None => key.push(KEY_NULL),
            }
        }
        let mut states = Vec::with_capacity(n_aggs);
        for agg in &aggs {
            states.push(match agg {
                StateCol::Count(c) => AggState::Count(c[row]),
                StateCol::Float(make, v) => make(v[row]),
                StateCol::Avg(sum, count) => AggState::Avg {
                    sum: sum[row],
                    count: count[row],
                },
                StateCol::Quantile => get_sketch(buf)?,
            });
        }
        out.push(GroupPartialEntry {
            window_start,
            key: GroupKey::from_canonical(key),
            states,
        });
    }
    Ok(())
}

fn next_column(columns: &mut impl Iterator<Item = Column>) -> Result<Column> {
    columns
        .next()
        .ok_or_else(|| Error::Decode("state run is missing a column".into()))
}

fn dense_u64(col: Column) -> Result<Vec<u64>> {
    match col {
        Column::U64(v) => Ok(v),
        _ => Err(Error::Decode("state column carries validity".into())),
    }
}

fn dense_f64(col: Column) -> Result<Vec<f64>> {
    match col {
        Column::F64(v) => Ok(v),
        _ => Err(Error::Decode("state column carries validity".into())),
    }
}

/// Reads one quantile sketch that follows a run's batch.
fn get_sketch(buf: &mut &[u8]) -> Result<AggState> {
    need(buf, 28)?;
    let q = buf.get_f64_le();
    let lo = buf.get_f64_le();
    let hi = buf.get_f64_le();
    let buckets = buf.get_u32_le() as usize;
    // NaN bounds compare as incomparable and must be rejected along with
    // an empty or inverted range.
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) || buckets == 0 {
        return Err(Error::Decode(format!(
            "bad sketch geometry: lo {lo}, hi {hi}, {buckets} buckets"
        )));
    }
    need(buf, 8 * (buckets + 3))?;
    let counts = (0..buckets).map(|_| buf.get_u64_le()).collect();
    Ok(AggState::Quantile {
        q,
        sketch: Box::new(QuantileSketch::from_parts(
            lo,
            hi,
            counts,
            buf.get_u64_le(),
            buf.get_u64_le(),
            buf.get_u64_le(),
        )),
    })
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
        raw.put_slice(&[1, 1, 1]); // length page: width 1, lengths 1 and 1
        raw.put_u8(0xC3);
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
        let flag_at = 4 + 4 + (1 + 8 + 1); // magic + rows + a one-step delta timestamp page
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
    fn plain_strings_past_the_u16_length_round_trip() {
        let s = Schema::new(vec![Field::new("t", DataType::Str)]);
        for (len, width) in [(65_535, 2), (65_536, 4), (1 << 20, 4)] {
            let long = "x".repeat(len);
            let recs = vec![
                Record::new(0, vec![Value::str(&long)]),
                Record::new(1, vec![Value::str("é")]),
            ];
            let batch = Batch::from_records(s.clone(), &recs).unwrap();
            assert!(matches!(batch.columns[0], Column::Str { .. }));
            let wire = encode_batch(&batch);
            // magic + rows, a one-step delta timestamp page, presence, page
            // tag, then the length page: width, two lengths, no base.
            let at = 8 + (1 + 8 + 1) + 1 + 1;
            assert_eq!(wire[at] as usize, width, "length page width at {len} B");
            assert_eq!(wire.len(), at + 1 + 2 * width + len + 2);
            assert_eq!(decode_batch(s.clone(), wire).unwrap().to_records(), recs);
        }
    }

    /// One entry of every state shape the columns carry.
    fn state_entry(window_start: i64, key: Vec<Value>) -> GroupPartialEntry {
        GroupPartialEntry {
            window_start,
            key: GroupKey::from_values(&key),
            states: vec![
                AggState::Count(3),
                AggState::Sum(f64::NAN),
                AggState::Min(f64::INFINITY),
                AggState::Max(-0.0),
                AggState::Avg {
                    sum: 2.5,
                    count: u64::MAX,
                },
            ],
        }
    }

    /// Equality through `Debug`, so NaN states compare equal to themselves
    /// and `-0.0` differs from `0.0`.
    fn same_state(a: &[GroupPartialEntry], b: &[GroupPartialEntry]) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn group_state_ships_one_run_per_shape() {
        let entries = vec![
            state_entry(10, vec![Value::Null, Value::str("a"), Value::I64(i64::MIN)]),
            state_entry(10, vec![Value::U64(7), Value::Null, Value::I64(i64::MAX)]),
            state_entry(20, vec![Value::U64(8), Value::str("a"), Value::Null]),
            // A different variant in column 1 opens a second run...
            state_entry(20, vec![Value::U64(8), Value::Bool(true), Value::Null]),
            // ...and a different arity a third.
            state_entry(30, vec![Value::F64(f64::NAN)]),
        ];
        let wire = encode_group_state(&entries);
        let back = decode_group_state(wire.clone()).unwrap();
        assert!(same_state(&back, &entries), "{back:?}");
        assert_eq!(run_lens(&wire), [3, 1, 1]);
        // An empty partial is an empty body.
        assert!(encode_group_state(&[]).is_empty());
        assert!(decode_group_state(Bytes::new()).unwrap().is_empty());
    }

    #[test]
    fn group_state_keys_past_the_dictionary_entry_length_go_plain() {
        let long = "k".repeat(70_000);
        let entries = vec![
            state_entry(0, vec![Value::str(&long)]),
            state_entry(0, vec![Value::str("short")]),
            state_entry(0, vec![Value::Null]),
        ];
        let back = decode_group_state(encode_group_state(&entries)).unwrap();
        assert!(same_state(&back, &entries));
    }

    /// Entries per run of a state body.
    fn run_lens(wire: &[u8]) -> Vec<usize> {
        let mut buf = wire;
        let mut runs = Vec::new();
        while !buf.is_empty() {
            let mut out = Vec::new();
            get_run(&mut buf, &mut out, &mut Vec::new()).unwrap();
            runs.push(out.len());
        }
        runs
    }

    #[test]
    fn state_runs_claim_no_more_slots_than_their_bytes_pay_for() {
        // Entries of 11 slots go in runs of eight: one run of all 50 would
        // claim more slots than its bytes pay for.
        let wide: Vec<GroupPartialEntry> = (0..50)
            .map(|i| GroupPartialEntry {
                window_start: i,
                key: GroupKey::from_values(
                    &(0..10)
                        .map(|c| [Value::Null, Value::I64(i + c)][c as usize % 2].clone())
                        .collect::<Vec<_>>(),
                ),
                states: vec![AggState::Count(1)],
            })
            .collect();
        let wire = encode_group_state(&wide);
        assert_eq!(run_lens(&wire), [8, 8, 8, 8, 8, 8, 2]);
        assert_eq!(decode_group_state(wire).unwrap(), wide);

        // 10,000 entries of 65,535 slots in about 75 KB (all-`Null` keys)
        // and 655 KB (width-0 `Count` pages): refused before any entry or
        // page is sized.
        let rows = 10_000usize;
        let forged = |kinds: &[u8], tags: &[u8], pages: &[u8]| {
            let mut buf = BytesMut::default();
            buf.put_u16_le(kinds.len() as u16);
            buf.put_slice(kinds);
            buf.put_u16_le(tags.len() as u16);
            buf.put_slice(tags);
            buf.put_u32_le(MAGIC);
            buf.put_u32_le(rows as u32);
            buf.put_u8(1);
            buf.put_u64_le(0);
            buf.put_slice(&vec![0; rows]);
            buf.put_slice(pages);
            decode_group_state(buf.freeze())
        };
        let null_kinds = vec![KEY_NULL; u16::MAX as usize];
        let counts = vec![AGG_COUNT; u16::MAX as usize];
        // Per column: no validity, then a width-0 page's width and base.
        let width_0 = [[0u8; 10]; u16::MAX as usize].concat();
        for got in [
            forged(&null_kinds, &[], &[]),
            forged(&[], &counts, &width_0),
        ] {
            assert!(
                matches!(&got, Err(Error::Decode(m)) if m.contains("outgrows its bytes")),
                "{got:?}"
            );
        }

        // A run of no entries is refused too.
        let mut empty = BytesMut::default();
        empty.put_u32_le(0);
        encode_columns_into(&mut empty, &[], &[], None);
        assert!(decode_group_state(empty.freeze()).is_err());
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
        wire.len() - 8 - TsPlan::of(&ts).len(ts.len()) - 1
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

    /// The flags byte and the page length of a one-column `F64` batch over
    /// `values`, after checking that every value comes back bit for bit.
    fn f64_page(values: &[f64]) -> (u8, usize) {
        let s = Schema::new(vec![Field::new("x", DataType::F64)]);
        let ts: Vec<i64> = (0..values.len() as i64).collect();
        let batch = Batch {
            schema: s.clone(),
            timestamps: ts.clone(),
            columns: vec![Column::F64(values.to_vec())],
        };
        let wire = encode_batch(&batch);
        let Column::F64(back) = &decode_batch(s, wire.clone()).unwrap().columns[0] else {
            panic!("an F64 column decodes as F64");
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back), bits(values), "{values:?}");
        let at = 8 + TsPlan::of(&ts).len(ts.len());
        (wire[at], wire.len() - at - 1)
    }

    #[test]
    fn integral_float_pages_ship_as_integer_pages_and_the_rest_raw() {
        let ints: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(f64_page(&ints), (FLAG_INT_F64, 1 + 8 + 10));
        // `2^63` saturates to `i64::MAX` and maps back to itself.
        let top = 2f64.powi(63);
        assert_eq!(f64_page(&[top; 10]), (FLAG_INT_F64, 1 + 8));
        assert_eq!(
            f64_page(&[top, top - 1024.0, top - 2048.0]),
            (FLAG_INT_F64, 1 + 8 + 3 * 2)
        );
        assert_eq!(
            f64_page(&[-top, -top + 1024.0, -top + 2048.0]),
            (FLAG_INT_F64, 1 + 8 + 3 * 2)
        );
        let exact = 2f64.powi(53);
        assert_eq!(
            f64_page(&[exact - 1.0, exact, exact + 2.0]),
            (FLAG_INT_F64, 1 + 8 + 3)
        );
        // One value the integer page cannot carry sends the page raw.
        for odd in [
            -0.0,
            f64::NAN,
            f64::from_bits(0xFFF0_0000_0000_BEEF),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            0.5,
            1e300,
        ] {
            let mut page = ints.clone();
            page.push(odd);
            assert_eq!(f64_page(&page), (0, 11 * 8), "{odd:?}");
        }
        // Integers whose page would not be smaller go raw too: a tie, a
        // lone value, an empty page.
        assert_eq!(f64_page(&[0.0, 70_000.0]), (0, 2 * 8));
        assert_eq!(f64_page(&[5.0]), (0, 8));
        assert_eq!(f64_page(&[]), (0, 0));
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

    /// The form tag and length of `ts`'s timestamp page in a batch of no
    /// columns, after checking that the timestamps come back unchanged.
    fn ts_page(ts: &[i64]) -> (u8, usize) {
        let s = Schema::new(vec![]);
        let batch = Batch {
            schema: s.clone(),
            timestamps: ts.to_vec(),
            columns: vec![],
        };
        let wire = encode_batch(&batch);
        assert_eq!(decode_batch(s, wire.clone()).unwrap().timestamps, ts);
        assert_eq!(
            wire.len() - 8,
            TsPlan::of(ts).len(ts.len()),
            "planned length"
        );
        (wire[8], wire.len() - 8)
    }

    #[test]
    fn timestamp_pages_round_trip_in_either_form() {
        // No rows, one row: the delta form would not be shorter.
        assert_eq!(ts_page(&[]), (8, 1));
        assert_eq!(ts_page(&[42]), (8, 1 + 8));
        // All equal: a zero byte a step against the 1-byte floor a row.
        assert_eq!(ts_page(&[7; 10]), (TS_DELTA, 1 + 8 + 9));
        // Strictly increasing, steps of one and two bytes.
        let ts: Vec<i64> = (0..100).map(|i| 1_000_000 + 100 * i).collect();
        assert_eq!(ts_page(&ts), (TS_DELTA, 1 + 8 + 99));
        let ts: Vec<i64> = (0..100).map(|i| 1_000_000 + 1_000 * i).collect();
        assert_eq!(ts_page(&ts), (TS_DELTA, 1 + 8 + 2 * 99));
        // The `i64` endpoints, as first timestamp and as the running sum.
        assert_eq!(ts_page(&[i64::MAX; 3]), (TS_DELTA, 1 + 8 + 2));
        assert_eq!(ts_page(&[i64::MIN; 3]), (TS_DELTA, 1 + 8 + 2));
        let top: Vec<i64> = (0..5).map(|i| i64::MAX - 4 + i).collect();
        assert_eq!(ts_page(&top).0, TS_DELTA);
        let bottom: Vec<i64> = (0..5).map(|i| i64::MIN + i).collect();
        assert_eq!(ts_page(&bottom).0, TS_DELTA);
    }

    #[test]
    fn timestamps_that_decrease_or_step_past_i64_go_frame_of_reference() {
        // A step past `i64::MAX` (up to the whole `u64` range) is a legal
        // varint of nine or ten bytes, so a page of such steps is longer
        // than the raw one and goes raw ...
        assert_eq!(ts_page(&[i64::MIN, i64::MAX]), (8, 1 + 16));
        assert_eq!(ts_page(&[i64::MIN, 0, i64::MAX]), (8, 1 + 24));
        // ... unless short steps pay for it: then it round-trips as a delta.
        assert_eq!(
            ts_page(&[i64::MIN, i64::MAX, i64::MAX]),
            (TS_DELTA, 1 + 8 + 10 + 1)
        );
        // One decreasing step sends the page frame-of-reference.
        let mut ts: Vec<i64> = (0..100).collect();
        ts.swap(40, 41);
        assert_eq!(ts_page(&ts), (1, 1 + 8 + 100));
        assert_eq!(ts_page(&[5, 4]), (1, 1 + 8 + 2));
    }

    #[test]
    fn the_chosen_timestamp_page_is_never_longer_than_frame_of_reference() {
        let mut x = 17u64;
        let mut next = || {
            // xorshift64*: deterministic and spread over every bit.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for case in 0..2_000 {
            let rows = (next() % 300) as usize;
            let shift = next() % 64;
            let base = next() as i64;
            let mut ts: Vec<i64> = (0..rows)
                .map(|_| base.wrapping_add((next() >> shift) as i64))
                .collect();
            if case % 2 == 0 {
                ts.sort_unstable();
            }
            let rows = ts.len();
            let int = IntPlan::of(&ts, 1).len::<i64>(rows);
            let chosen = TsPlan::of(&ts);
            assert!(chosen.len(rows) <= int, "case {case}");
            let delta = delta_page_len(&ts);
            assert_eq!(
                matches!(chosen, TsPlan::Delta(_)),
                delta.is_some_and(|d| d < int),
                "case {case}"
            );
            ts_page(&ts);
        }
    }

    #[test]
    fn hostile_delta_timestamp_pages_are_typed_errors() {
        // magic, `rows`, then `page` as the timestamp page of a batch of no
        // columns.
        let frame = |rows: u32, page: &[u8]| {
            let mut raw = BytesMut::default();
            raw.put_u32_le(super::MAGIC);
            raw.put_u32_le(rows);
            raw.put_slice(page);
            decode_batch(Schema::new(vec![]), raw.freeze())
        };
        let delta = |base: i64, steps: &[u8]| {
            let mut page = vec![TS_DELTA];
            page.extend(base.to_le_bytes());
            page.extend(steps);
            page
        };
        let decode_err = |r: Result<Batch>| matches!(r, Err(Error::Decode(_)));
        assert_eq!(
            frame(3, &delta(9, &[0x01, 0x80, 0x01])).unwrap().timestamps,
            vec![9, 10, 138]
        );
        // A varint cut short by the end of the frame.
        assert!(decode_err(frame(2, &delta(0, &[0x80]))));
        assert!(decode_err(frame(3, &delta(0, &[0x01, 0xFF]))));
        // Eleven bytes, and ten whose last group passes `u64`.
        let mut long = [0x80; 11];
        long[10] = 0x01;
        assert!(decode_err(frame(2, &delta(0, &long))));
        let mut wide = [0xFF; 10];
        wide[9] = 0x02;
        assert!(decode_err(frame(2, &delta(0, &wide))));
        // The widest legal step, and the same value with a zero group on.
        let mut max = [0xFF; 10];
        max[9] = 0x01;
        assert_eq!(
            frame(2, &delta(i64::MIN, &max)).unwrap().timestamps,
            vec![i64::MIN, i64::MAX]
        );
        assert!(decode_err(frame(2, &delta(0, &[0x81, 0x00]))));
        // Steps whose sum passes `i64::MAX`, singly and together.
        assert!(decode_err(frame(2, &delta(i64::MAX, &[0x01]))));
        assert!(decode_err(frame(3, &delta(i64::MAX - 1, &[0x01, 0x01]))));
        assert!(decode_err(frame(2, &delta(1, &max))));
        // A page of no rows has no first timestamp.
        assert!(decode_err(frame(0, &delta(0, &[]))));
        // Forged row counts above the body's bytes are refused before
        // `rows` sizes anything: a `u32::MAX`-row page would otherwise
        // reserve 32 GiB.
        assert!(decode_err(frame(u32::MAX, &delta(0, &[0; 64]))));
        assert!(decode_err(frame(4, &delta(0, &[0, 0]))));
        // The delta tag is a timestamp form only, not an integer page width.
        let s = Schema::new(vec![Field::new("v", DataType::U64)]);
        let mut raw = BytesMut::default();
        raw.put_u32_le(super::MAGIC);
        raw.put_u32_le(1);
        raw.put_slice(&[8, 0, 0, 0, 0, 0, 0, 0, 0]); // a raw timestamp
        raw.put_u8(0); // dense
        raw.put_slice(&delta(0, &[]));
        assert!(decode_err(decode_batch(s, raw.freeze())));
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
