//! Columnar batches — the unit of dataflow.
//!
//! Since the batch-first operator redesign, `Batch` is not just the wire
//! format: every operator consumes and produces batches, sources generate
//! them directly, and the engines queue them end-to-end. This module is the
//! in-repo stand-in for the Arrow/Kryo layer the paper's implementation
//! relied on, and [`layout`] is the single source of truth for wire-size
//! accounting (row-oriented [`Record::wire_size`] delegates to it too).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::error::{Error, Result};
use crate::record::Record;
use crate::schema::{DataType, Schema, SchemaRef};
use crate::time::Ts;
use crate::value::Value;

/// The canonical wire layout: every byte the network accounting charges is
/// derived from these rules, whether the caller holds a `Record` or a
/// [`Batch`].
pub mod layout {
    use super::{DataType, Schema, StrDict, Value};

    /// Length prefix carried by every string value on the wire.
    pub const STR_LEN_PREFIX_BYTES: usize = 2;

    /// Per-row bytes of a dictionary-encoded string column: each row ships a
    /// fixed-width code into the column's dictionary page.
    pub const DICT_CODE_BYTES: usize = 4;

    /// Header of a dictionary page (entry count).
    pub const DICT_PAGE_HEADER_BYTES: usize = 4;

    /// Encoded size of a dictionary page: header plus every distinct entry
    /// once, each with the usual string length prefix. The page is charged
    /// once per encoded batch, not per row — that is what makes dictionary
    /// columns cheaper than plain strings for low-cardinality fields.
    pub fn dict_page_bytes(dict: &StrDict) -> usize {
        DICT_PAGE_HEADER_BYTES + dict.iter().map(|s| str_bytes(s.len())).sum::<usize>()
    }

    /// Total wire bytes of a dictionary column carrying `rows` codes over
    /// `dict`. An empty column ships nothing (no page either).
    pub fn dict_bytes(dict: &StrDict, rows: usize) -> usize {
        if rows == 0 {
            0
        } else {
            dict_page_bytes(dict) + DICT_CODE_BYTES * rows
        }
    }

    /// Header of a dictionary delta page (dictionary id, base version,
    /// entry count, content checksum).
    pub const DICT_DELTA_HEADER_BYTES: usize = 8 + 4 + 4 + 8;

    /// Encoded size of the delta a receiver at version `base` is missing:
    /// the delta header plus every entry of `dict` from `base` onward, each
    /// with the usual string length prefix.
    pub fn dict_delta_bytes(dict: &StrDict, base: u32) -> usize {
        DICT_DELTA_HEADER_BYTES
            + (base as usize..dict.len())
                .map(|c| str_bytes(dict.get(c as u32).len()))
                .sum::<usize>()
    }

    /// Per-row envelope: the 8-byte event timestamp plus the schema's
    /// serialisation overhead.
    pub fn row_envelope(schema: &Schema) -> usize {
        Schema::TS_WIRE_BYTES + schema.record_overhead()
    }

    /// Encoded size of one string payload of `len` bytes.
    pub fn str_bytes(len: usize) -> usize {
        STR_LEN_PREFIX_BYTES + len
    }

    /// Encoded size of one value under a column type. `Null` occupies the
    /// column's default footprint (an empty string / a zeroed fixed slot).
    pub fn value_bytes(dtype: DataType, value: &Value) -> usize {
        match dtype {
            DataType::Str => str_bytes(value.as_str().map_or(0, str::len)),
            other => other.fixed_width().unwrap_or(0),
        }
    }
}

/// An ordered dictionary of distinct strings backing a [`Column::Dict`].
///
/// Entries are stored like a small string column (one more offset than
/// entries, UTF-8 bytes in `data`); codes are indexes into it. The
/// dictionary is immutable once a column is built — slicing and selecting
/// share it.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    offsets: Vec<u32>,
    data: Vec<u8>,
    /// Persistent-stream identity; `0` means batch-local (codes are only
    /// meaningful within the batch that carries the page). Non-zero ids are
    /// handed out by [`StreamDict`], whose snapshots share one id across
    /// batches and epochs.
    id: u64,
}

impl PartialEq for StrDict {
    /// Content equality only: the persistent identity is a routing hint for
    /// caches and delta shipping, not part of the logical value — a wire
    /// round trip that re-registers the page under a receiver-local id still
    /// compares equal.
    fn eq(&self, other: &StrDict) -> bool {
        self.offsets == other.offsets && self.data == other.data
    }
}

impl StrDict {
    /// An empty dictionary.
    pub fn new() -> StrDict {
        StrDict {
            offsets: vec![0],
            data: Vec::new(),
            id: 0,
        }
    }

    /// Builds a dictionary from entries in order (entries need not be
    /// distinct, but codes always refer to positions).
    pub fn from_entries<S: AsRef<str>>(entries: impl IntoIterator<Item = S>) -> StrDict {
        let mut d = StrDict::new();
        for e in entries {
            d.push(e.as_ref());
        }
        d
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an entry, returning its code.
    pub fn push(&mut self, s: &str) -> u32 {
        let code = self.len() as u32;
        self.data.extend_from_slice(s.as_bytes());
        self.offsets.push(self.data.len() as u32);
        code
    }

    /// The entry for `code`.
    pub fn get(&self, code: u32) -> &str {
        let lo = self.offsets[code as usize] as usize;
        let hi = self.offsets[code as usize + 1] as usize;
        let s = std::str::from_utf8(&self.data[lo..hi]);
        debug_assert!(s.is_ok(), "StrDict invariant violated: non-UTF-8 entry");
        s.unwrap_or("")
    }

    /// Iterates the entries in code order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|c| self.get(c as u32))
    }

    /// The persistent-stream identity (`0` = batch-local).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The delta a receiver at version `base` needs to mirror this page
    /// (clamped to the page's length; empty when already synced).
    pub fn delta_since(&self, base: u32) -> DictDelta {
        let base = base.min(self.len() as u32);
        DictDelta {
            dict_id: self.id,
            base,
            entries: (base..self.len() as u32)
                .map(|c| self.get(c).to_string())
                .collect(),
        }
    }
}

/// Process-wide persistent-dictionary identity allocator (`0` is reserved
/// for batch-local pages).
static NEXT_DICT_ID: AtomicU64 = AtomicU64::new(1);

/// FNV-1a over a byte stream — the delta checksum primitive (same constants
/// as the shard hasher, duplicated to keep `layout`/delta self-contained).
fn fnv1a_accum(mut h: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The appended tail of a persistent dictionary since a receiver's last
/// synced version — what a delta page ships instead of the full page.
///
/// `entries` cover codes `base .. base + entries.len()` of dictionary
/// `dict_id`; a `base` of 0 is the first-contact full page.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DictDelta {
    /// Identity of the dictionary stream the delta extends.
    pub dict_id: u64,
    /// Receiver version this delta starts from (entry count already held).
    pub base: u32,
    /// Newly appended entries, in code order.
    pub entries: Vec<String>,
}

impl DictDelta {
    /// Layout-derived wire size of the delta page (header + entries).
    pub fn wire_bytes(&self) -> usize {
        layout::DICT_DELTA_HEADER_BYTES
            + self
                .entries
                .iter()
                .map(|e| layout::str_bytes(e.len()))
                .sum::<usize>()
    }

    /// Content checksum carried on the wire so a corrupted delta decodes to
    /// a typed error instead of silently poisoning the receiver's mirror.
    pub fn checksum(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h = fnv1a_accum(FNV_OFFSET, &self.dict_id.to_le_bytes());
        h = fnv1a_accum(h, &self.base.to_le_bytes());
        for e in &self.entries {
            h = fnv1a_accum(h, &(e.len() as u32).to_le_bytes());
            h = fnv1a_accum(h, e.as_bytes());
        }
        h
    }
}

/// A persistent per-stream dictionary: append-only interning whose codes
/// stay valid across batches *and* epochs.
///
/// Each `StreamDict` owns a process-unique non-zero id; [`snapshot`]
/// publishes an `Arc<StrDict>` carrying that id, re-allocated only when the
/// dictionary has grown since the last snapshot, so consecutive batches over
/// an unchanged dictionary share one page pointer. The version is simply the
/// entry count — append-only means it is monotone and never remaps a code.
///
/// [`snapshot`]: StreamDict::snapshot
#[derive(Debug)]
pub struct StreamDict {
    dict: StrDict,
    lookup: HashMap<Box<str>, u32>,
    snapshot: Arc<StrDict>,
}

impl Default for StreamDict {
    fn default() -> StreamDict {
        StreamDict::new()
    }
}

impl Clone for StreamDict {
    /// Forking a stream dictionary yields a *new* stream: same entries and
    /// codes, fresh persistent id. Two writers sharing an id could diverge
    /// and poison every id-keyed cache and receiver mirror, so identity is
    /// never cloned.
    fn clone(&self) -> StreamDict {
        let mut dict = self.dict.clone();
        dict.id = NEXT_DICT_ID.fetch_add(1, Ordering::Relaxed);
        StreamDict {
            snapshot: Arc::new(dict.clone()),
            dict,
            lookup: self.lookup.clone(),
        }
    }
}

impl StreamDict {
    /// A fresh empty stream dictionary with a new process-unique id.
    pub fn new() -> StreamDict {
        let mut dict = StrDict::new();
        dict.id = NEXT_DICT_ID.fetch_add(1, Ordering::Relaxed);
        StreamDict {
            snapshot: Arc::new(dict.clone()),
            dict,
            lookup: HashMap::new(),
        }
    }

    /// The persistent identity shared by every snapshot.
    pub fn id(&self) -> u64 {
        self.dict.id
    }

    /// Current version = entry count (append-only, so monotone).
    pub fn version(&self) -> u32 {
        self.dict.len() as u32
    }

    /// Number of interned entries.
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// The entry for `code`.
    pub fn get(&self, code: u32) -> &str {
        self.dict.get(code)
    }

    /// Interns `s`, returning its stable code (existing entries keep their
    /// code forever; novel entries append).
    pub fn intern(&mut self, s: &str) -> u32 {
        match self.lookup.get(s) {
            Some(&c) => c,
            None => {
                let c = self.dict.push(s);
                self.lookup.insert(Box::from(s), c);
                c
            }
        }
    }

    /// The current snapshot page for building [`Column::Dict`] columns.
    /// Republished (one `StrDict` clone) only when the dictionary grew since
    /// the previous snapshot; otherwise the same `Arc` is returned.
    pub fn snapshot(&mut self) -> Arc<StrDict> {
        if self.snapshot.len() != self.dict.len() {
            self.snapshot = Arc::new(self.dict.clone());
        }
        self.snapshot.clone()
    }

    /// The delta a receiver at version `base` needs to catch up to the
    /// current version (empty `entries` when already synced).
    pub fn delta_since(&self, base: u32) -> DictDelta {
        self.dict.delta_since(base)
    }

    /// Extends a receiver-side mirror with `delta`. The delta must start
    /// exactly at the mirror's current version — out-of-order or replayed
    /// deltas are rejected (append-only means there is exactly one valid
    /// next delta), keeping a desynced mirror an error instead of silent
    /// code corruption.
    pub fn apply_delta(&mut self, delta: &DictDelta) -> Result<()> {
        if delta.base != self.version() {
            return Err(Error::Decode(format!(
                "dict delta out of order: mirror at version {}, delta base {}",
                self.version(),
                delta.base
            )));
        }
        for e in &delta.entries {
            let c = self.dict.push(e);
            self.lookup.entry(Box::from(e.as_str())).or_insert(c);
        }
        Ok(())
    }
}

/// Receiver-side mirrors of a peer's persistent dictionaries, keyed by the
/// *sender's* dict id (ids are only unique within the sending process, so
/// each link/peer gets its own registry).
///
/// Mirrors are themselves [`StreamDict`]s: their snapshots carry a
/// receiver-local persistent id that stays stable across frames, so the
/// code-native fast paths (shard hash caches, group-key fragment caches)
/// work on the receiving side too.
#[derive(Debug, Default)]
pub struct DictRegistry {
    mirrors: HashMap<u64, StreamDict>,
}

impl DictRegistry {
    /// An empty registry (a link before first contact).
    pub fn new() -> DictRegistry {
        DictRegistry::default()
    }

    /// Applies `delta` to the mirror for its dict id (created at version 0
    /// on first contact — a `base` of 0 is the full-page handshake) and
    /// returns the caught-up snapshot page.
    pub fn apply(&mut self, delta: &DictDelta) -> Result<Arc<StrDict>> {
        let mirror = self.mirrors.entry(delta.dict_id).or_default();
        mirror.apply_delta(delta)?;
        Ok(mirror.snapshot())
    }

    /// Forgets every mirror — the receiver-side reset after a recovery or
    /// reassignment, forcing senders to re-handshake with full pages.
    pub fn clear(&mut self) {
        self.mirrors.clear();
    }
}

/// Incremental builder for a dictionary-encoded string column: interns each
/// appended string, so repeated values cost one code.
pub struct DictBuilder {
    dict: StrDict,
    lookup: HashMap<Box<str>, u32>,
    codes: Vec<u32>,
    /// Validity, allocated lazily on the first `push_null`.
    nulls: Option<Vec<bool>>,
}

impl DictBuilder {
    /// Creates a builder, reserving `capacity` rows.
    pub fn new(capacity: usize) -> DictBuilder {
        DictBuilder {
            dict: StrDict::new(),
            lookup: HashMap::new(),
            codes: Vec::with_capacity(capacity),
            nulls: None,
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Interns `s` and appends its code.
    pub fn push(&mut self, s: &str) {
        let code = match self.lookup.get(s) {
            Some(&c) => c,
            None => {
                let c = self.dict.push(s);
                self.lookup.insert(Box::from(s), c);
                c
            }
        };
        self.codes.push(code);
        if let Some(nulls) = &mut self.nulls {
            nulls.push(true);
        }
    }

    /// Appends a `Null` row (code 0 filler behind a validity mask; the
    /// filler points at entry 0, which exists once any row was pushed — an
    /// all-null column keeps an empty dictionary and never reads it).
    pub fn push_null(&mut self) {
        if self.nulls.is_none() {
            self.nulls = Some(vec![true; self.codes.len()]);
        }
        self.codes.push(0);
        self.nulls.as_mut().expect("allocated above").push(false);
    }

    /// Finishes the column ([`Column::Opt`]-wrapped when nulls were pushed).
    pub fn finish(self) -> Column {
        let dense = Column::Dict {
            codes: self.codes,
            dict: Arc::new(self.dict),
        };
        match self.nulls {
            Some(valid) => Column::Opt {
                valid,
                values: Box::new(dense),
            },
            None => dense,
        }
    }
}

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Booleans.
    Bool(Vec<bool>),
    /// Signed 64-bit (also backs I32 columns).
    I64(Vec<i64>),
    /// Unsigned 64-bit (also backs U32 columns).
    U64(Vec<u64>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// Strings: `offsets.len() == rows + 1`, UTF-8 bytes in `data`.
    ///
    /// Invariant: `data` is valid UTF-8 and every offset lands on a char
    /// boundary. Builder paths ([`ColumnBuilder`], wire decode) enforce this
    /// with debug assertions; [`Column::str_at`] maps a violated invariant
    /// to `None` (reads as null) in release builds rather than panicking.
    Str {
        /// Row boundaries into `data` (`rows + 1` entries).
        offsets: Vec<u32>,
        /// Concatenated UTF-8 string bytes.
        data: Bytes,
    },
    /// Dictionary-encoded strings: `codes[row]` indexes into `dict`. The
    /// physical fast path for low-cardinality string fields (tenant names,
    /// stat names): grouping and predicate kernels work on the codes, and
    /// the wire layout ships the dictionary page once per batch.
    Dict {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// Shared dictionary page (shared across slices/selections).
        dict: Arc<StrDict>,
    },
    /// A column with missing values: `values` stores type-default fillers at
    /// invalid rows (outer-join misses, empty aggregates).
    Opt {
        /// Per-row validity; `false` reads as [`Value::Null`].
        valid: Vec<bool>,
        /// The dense backing column.
        values: Box<Column>,
    },
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::U64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Str { offsets, .. } => offsets.len().saturating_sub(1),
            Column::Dict { codes, .. } => codes.len(),
            Column::Opt { valid, .. } => valid.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `row`.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Bool(v) => Value::Bool(v[row]),
            Column::I64(v) => Value::I64(v[row]),
            Column::U64(v) => Value::U64(v[row]),
            Column::F64(v) => Value::F64(v[row]),
            Column::Str { .. } | Column::Dict { .. } => Value::str(self.str_at(row).unwrap_or("")),
            Column::Opt { valid, values } => {
                if valid[row] {
                    values.value(row)
                } else {
                    Value::Null
                }
            }
        }
    }

    /// Numeric view of the value at `row` (`None` for strings and nulls);
    /// the columnar fast path behind aggregate updates.
    pub fn f64_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::Bool(v) => Some(if v[row] { 1.0 } else { 0.0 }),
            Column::I64(v) => Some(v[row] as f64),
            Column::U64(v) => Some(v[row] as f64),
            Column::F64(v) => Some(v[row]),
            Column::Str { .. } | Column::Dict { .. } => None,
            Column::Opt { valid, values } => {
                if valid[row] {
                    values.f64_at(row)
                } else {
                    None
                }
            }
        }
    }

    /// Borrowed string at `row` (`None` for non-string columns and nulls).
    pub fn str_at(&self, row: usize) -> Option<&str> {
        match self {
            Column::Str { offsets, data } => {
                let lo = offsets[row] as usize;
                let hi = offsets[row + 1] as usize;
                let s = std::str::from_utf8(&data[lo..hi]);
                debug_assert!(
                    s.is_ok(),
                    "Column::Str invariant violated: non-UTF-8 payload"
                );
                s.ok()
            }
            Column::Dict { codes, dict } => Some(dict.get(codes[row])),
            Column::Opt { valid, values } => {
                if valid[row] {
                    values.str_at(row)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Appends `other`'s rows. Dense columns of the same physical layout
    /// (and dictionary columns sharing one page) extend in place; any other
    /// pairing — plain vs dictionary strings, different pages, one side
    /// nullable — is re-materialised value by value as a `dtype` column.
    pub fn append(&mut self, other: &Column, dtype: DataType) {
        match (&mut *self, other) {
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (Column::I64(a), Column::I64(b)) => a.extend_from_slice(b),
            (Column::U64(a), Column::U64(b)) => a.extend_from_slice(b),
            (Column::F64(a), Column::F64(b)) => a.extend_from_slice(b),
            (Column::Dict { codes: a, dict: da }, Column::Dict { codes: b, dict: db })
                if Arc::ptr_eq(da, db) =>
            {
                a.extend_from_slice(b);
            }
            _ => {
                let mut builder = ColumnBuilder::new(dtype, self.len() + other.len());
                for col in [&*self, other] {
                    for row in 0..col.len() {
                        builder
                            .push(&col.value(row))
                            .expect("both columns hold `dtype` values");
                    }
                }
                *self = builder.finish();
            }
        }
    }

    /// Copies the rows in `range` into a new column.
    pub fn slice(&self, range: Range<usize>) -> Column {
        match self {
            Column::Bool(v) => Column::Bool(v[range].to_vec()),
            Column::I64(v) => Column::I64(v[range].to_vec()),
            Column::U64(v) => Column::U64(v[range].to_vec()),
            Column::F64(v) => Column::F64(v[range].to_vec()),
            Column::Str { offsets, data } => {
                let base = offsets[range.start];
                let new_offsets: Vec<u32> = offsets[range.start..=range.end]
                    .iter()
                    .map(|o| o - base)
                    .collect();
                let lo = offsets[range.start] as usize;
                let hi = offsets[range.end] as usize;
                Column::Str {
                    offsets: new_offsets,
                    data: data.slice(lo..hi),
                }
            }
            Column::Dict { codes, dict } => Column::Dict {
                codes: codes[range].to_vec(),
                dict: dict.clone(),
            },
            Column::Opt { valid, values } => Column::Opt {
                valid: valid[range.clone()].to_vec(),
                values: Box::new(values.slice(range)),
            },
        }
    }

    /// Gathers the rows where `mask` is true into a new column.
    /// `mask.len()` must equal the column length.
    pub fn select(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        let gather = |keep: &[bool]| keep.iter().filter(|&&k| k).count();
        match self {
            Column::Bool(v) => Column::Bool(filter_by(v, mask)),
            Column::I64(v) => Column::I64(filter_by(v, mask)),
            Column::U64(v) => Column::U64(filter_by(v, mask)),
            Column::F64(v) => Column::F64(filter_by(v, mask)),
            Column::Str { offsets, data } => {
                let kept = gather(mask);
                let mut new_offsets = Vec::with_capacity(kept + 1);
                new_offsets.push(0u32);
                let total: usize = mask
                    .iter()
                    .enumerate()
                    .filter(|(_, &k)| k)
                    .map(|(i, _)| (offsets[i + 1] - offsets[i]) as usize)
                    .sum();
                let mut new_data = Vec::with_capacity(total);
                for (i, &keep) in mask.iter().enumerate() {
                    if keep {
                        let lo = offsets[i] as usize;
                        let hi = offsets[i + 1] as usize;
                        new_data.extend_from_slice(&data[lo..hi]);
                        new_offsets.push(new_data.len() as u32);
                    }
                }
                Column::Str {
                    offsets: new_offsets,
                    data: Bytes::from(new_data),
                }
            }
            Column::Dict { codes, dict } => Column::Dict {
                codes: filter_by(codes, mask),
                dict: dict.clone(),
            },
            Column::Opt { valid, values } => Column::Opt {
                valid: filter_by(valid, mask),
                values: Box::new(values.select(mask)),
            },
        }
    }

    /// Gathers the listed rows (in order, duplicates allowed) into a new
    /// column — the take-kernel behind keyed sharding and index joins.
    pub fn gather(&self, rows: &[u32]) -> Column {
        let take = |n: usize| {
            debug_assert!(rows.iter().all(|&r| (r as usize) < n));
        };
        match self {
            Column::Bool(v) => {
                take(v.len());
                Column::Bool(rows.iter().map(|&r| v[r as usize]).collect())
            }
            Column::I64(v) => {
                take(v.len());
                Column::I64(rows.iter().map(|&r| v[r as usize]).collect())
            }
            Column::U64(v) => {
                take(v.len());
                Column::U64(rows.iter().map(|&r| v[r as usize]).collect())
            }
            Column::F64(v) => {
                take(v.len());
                Column::F64(rows.iter().map(|&r| v[r as usize]).collect())
            }
            Column::Str { offsets, data } => {
                take(offsets.len().saturating_sub(1));
                let total: usize = rows
                    .iter()
                    .map(|&r| (offsets[r as usize + 1] - offsets[r as usize]) as usize)
                    .sum();
                let mut new_offsets = Vec::with_capacity(rows.len() + 1);
                new_offsets.push(0u32);
                let mut new_data = Vec::with_capacity(total);
                for &r in rows {
                    let lo = offsets[r as usize] as usize;
                    let hi = offsets[r as usize + 1] as usize;
                    new_data.extend_from_slice(&data[lo..hi]);
                    new_offsets.push(new_data.len() as u32);
                }
                Column::Str {
                    offsets: new_offsets,
                    data: Bytes::from(new_data),
                }
            }
            Column::Dict { codes, dict } => {
                take(codes.len());
                Column::Dict {
                    codes: rows.iter().map(|&r| codes[r as usize]).collect(),
                    dict: dict.clone(),
                }
            }
            Column::Opt { valid, values } => {
                take(valid.len());
                Column::Opt {
                    valid: rows.iter().map(|&r| valid[r as usize]).collect(),
                    values: Box::new(values.gather(rows)),
                }
            }
        }
    }

    /// Dictionary-encodes a string column when its cardinality stays within
    /// `max_cardinality`. Returns `None` for non-string columns, for string
    /// columns that exceed the bound (where a dictionary would not pay for
    /// itself), for values longer than the wire format's u16 length prefix
    /// can carry, and for columns that are already dictionary-encoded.
    /// `Opt`-wrapped string columns keep their validity mask.
    pub fn dict_encode(&self, max_cardinality: usize) -> Option<Column> {
        // The wire encodes each dictionary entry behind a u16 length; an
        // oversized value must stay in a plain column rather than truncate.
        let fits = |s: &str| s.len() <= u16::MAX as usize;
        match self {
            Column::Str { .. } => {
                let rows = self.len();
                let mut b = DictBuilder::new(rows);
                for row in 0..rows {
                    let s = self.str_at(row).unwrap_or("");
                    if !fits(s) {
                        return None;
                    }
                    b.push(s);
                    if b.dict.len() > max_cardinality {
                        return None;
                    }
                }
                Some(b.finish())
            }
            Column::Opt { valid, values } => {
                if !matches!(values.as_ref(), Column::Str { .. }) {
                    return None;
                }
                let mut b = DictBuilder::new(valid.len());
                for (row, &ok) in valid.iter().enumerate() {
                    if ok {
                        let s = values.str_at(row).unwrap_or("");
                        if !fits(s) {
                            return None;
                        }
                        b.push(s);
                    } else {
                        b.push_null();
                    }
                    if b.dict.len() > max_cardinality {
                        return None;
                    }
                }
                Some(b.finish())
            }
            _ => None,
        }
    }

    /// Materialises a dictionary column back into a plain string column
    /// (`Opt` wrappers are preserved; null rows get the empty-string filler
    /// without reading the dictionary — an all-null column's dictionary is
    /// empty and its code-0 fillers point at nothing); non-dictionary
    /// columns are cloned.
    pub fn dict_decode(&self) -> Column {
        fn decode(codes: &[u32], dict: &StrDict, valid: Option<&[bool]>) -> Column {
            let mut offsets = Vec::with_capacity(codes.len() + 1);
            offsets.push(0u32);
            let mut data = Vec::new();
            for (row, &c) in codes.iter().enumerate() {
                if valid.is_none_or(|v| v[row]) {
                    data.extend_from_slice(dict.get(c).as_bytes());
                }
                offsets.push(data.len() as u32);
            }
            Column::Str {
                offsets,
                data: Bytes::from(data),
            }
        }
        match self {
            Column::Dict { codes, dict } => decode(codes, dict, None),
            Column::Opt { valid, values } => Column::Opt {
                valid: valid.clone(),
                values: Box::new(match values.as_ref() {
                    Column::Dict { codes, dict } => decode(codes, dict, Some(valid)),
                    other => other.dict_decode(),
                }),
            },
            other => other.clone(),
        }
    }

    /// Dictionary-encodes a string column against a persistent
    /// [`StreamDict`], so the resulting codes are stable across batches and
    /// epochs. Returns `None` under the same conditions as
    /// [`Column::dict_encode`], except the cardinality bound applies to the
    /// stream's *cumulative* cardinality (entries interned before a refusal
    /// stay in the stream — append-only dictionaries never un-intern).
    pub fn dict_encode_with(
        &self,
        stream: &mut StreamDict,
        max_cardinality: usize,
    ) -> Option<Column> {
        let fits = |s: &str| s.len() <= u16::MAX as usize;
        let (valid, values): (Option<&[bool]>, &Column) = match self {
            Column::Str { .. } => (None, self),
            Column::Opt { valid, values } if matches!(values.as_ref(), Column::Str { .. }) => {
                (Some(valid), values)
            }
            _ => return None,
        };
        let rows = self.len();
        let mut codes = Vec::with_capacity(rows);
        for row in 0..rows {
            if valid.is_some_and(|v| !v[row]) {
                // Null rows carry the code-0 filler behind the validity
                // mask, exactly as DictBuilder::push_null.
                codes.push(0);
                continue;
            }
            let s = values.str_at(row).unwrap_or("");
            if !fits(s) {
                return None;
            }
            codes.push(stream.intern(s));
            if stream.len() > max_cardinality {
                return None;
            }
        }
        let dense = Column::Dict {
            codes,
            dict: stream.snapshot(),
        };
        Some(match valid {
            Some(valid) => Column::Opt {
                valid: valid.to_vec(),
                values: Box::new(dense),
            },
            None => dense,
        })
    }

    /// The dictionary and codes when this is a dense dictionary column.
    pub fn as_dict(&self) -> Option<(&StrDict, &[u32])> {
        match self {
            Column::Dict { codes, dict } => Some((dict, codes)),
            _ => None,
        }
    }

    /// Wire bytes of the column payload under its schema type (excluding the
    /// per-row envelope, which the batch accounts once per row).
    pub fn wire_bytes(&self, dtype: DataType) -> usize {
        match self {
            Column::Str { offsets, data } => {
                layout::STR_LEN_PREFIX_BYTES * offsets.len().saturating_sub(1) + data.len()
            }
            Column::Dict { codes, dict } => layout::dict_bytes(dict, codes.len()),
            Column::Opt { values, .. } => values.wire_bytes(dtype),
            col => dtype.fixed_width().unwrap_or(0) * col.len(),
        }
    }
}

/// Per-link shipped dictionary versions (dict id → entry count already on
/// the receiver) — the sender-side state behind delta-only wire accounting
/// and encoding. Reset it (or drop entries) to force a full page on the next
/// ship, e.g. after a reconnect or shard reassignment.
pub type DictVersions = HashMap<u64, u32>;

fn filter_by<T: Copy>(values: &[T], mask: &[bool]) -> Vec<T> {
    values
        .iter()
        .zip(mask)
        .filter(|(_, &k)| k)
        .map(|(v, _)| *v)
        .collect()
}

/// A batch of records in columnar form: timestamps + one column per field.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Schema describing `columns`.
    pub schema: SchemaRef,
    /// Event timestamps, one per row.
    pub timestamps: Vec<Ts>,
    /// Columns, positionally matching the schema.
    pub columns: Vec<Column>,
}

impl Batch {
    /// An empty batch of `schema`.
    pub fn empty(schema: SchemaRef) -> Batch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype, 0).finish())
            .collect();
        Batch {
            schema,
            timestamps: Vec::new(),
            columns,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Builds a columnar batch from row-oriented records.
    pub fn from_records(schema: SchemaRef, records: &[Record]) -> Result<Batch> {
        let mut b = BatchBuilder::new(schema, records.len());
        for rec in records {
            b.push_record(rec)?;
        }
        Ok(b.finish())
    }

    /// Converts back to row-oriented records.
    pub fn to_records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.len());
        for row in 0..self.len() {
            let values = self.columns.iter().map(|c| c.value(row)).collect();
            out.push(Record::new(self.timestamps[row], values));
        }
        out
    }

    /// Copies the rows in `range` into a new batch.
    pub fn slice(&self, range: Range<usize>) -> Batch {
        Batch {
            schema: self.schema.clone(),
            timestamps: self.timestamps[range.clone()].to_vec(),
            columns: self
                .columns
                .iter()
                .map(|c| c.slice(range.clone()))
                .collect(),
        }
    }

    /// Appends `other`'s rows (same schema) to this batch.
    pub fn append(&mut self, other: &Batch) {
        debug_assert_eq!(self.columns.len(), other.columns.len());
        self.timestamps.extend_from_slice(&other.timestamps);
        for ((col, more), field) in self
            .columns
            .iter_mut()
            .zip(&other.columns)
            .zip(self.schema.fields())
        {
            col.append(more, field.dtype);
        }
    }

    /// One batch holding the rows of `batches`, in order.
    pub fn concat(schema: SchemaRef, batches: &[Batch]) -> Batch {
        let mut all = Batch::empty(schema);
        for batch in batches {
            all.append(batch);
        }
        all
    }

    /// Gathers the rows where `mask` is true into a new batch (the
    /// vectorized filter's gather step).
    pub fn select(&self, mask: &[bool]) -> Batch {
        debug_assert_eq!(mask.len(), self.len());
        Batch {
            schema: self.schema.clone(),
            timestamps: filter_by(&self.timestamps, mask),
            columns: self.columns.iter().map(|c| c.select(mask)).collect(),
        }
    }

    /// Gathers the listed rows (in order, duplicates allowed) into a new
    /// batch.
    pub fn gather(&self, rows: &[u32]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            timestamps: rows.iter().map(|&r| self.timestamps[r as usize]).collect(),
            columns: self.columns.iter().map(|c| c.gather(rows)).collect(),
        }
    }

    /// Dictionary-encodes every plain string column whose cardinality stays
    /// within `max_cardinality`, leaving other columns untouched. Returns
    /// whether any column was re-encoded.
    pub fn dict_encode(&mut self, max_cardinality: usize) -> bool {
        let mut changed = false;
        for col in &mut self.columns {
            if let Some(dict) = col.dict_encode(max_cardinality) {
                *col = dict;
                changed = true;
            }
        }
        changed
    }

    /// Materialises every dictionary column back into plain strings (the
    /// inverse of [`Batch::dict_encode`], used by differential tests).
    pub fn dict_decode(&mut self) {
        for col in &mut self.columns {
            let has_dict = match col {
                Column::Dict { .. } => true,
                Column::Opt { values, .. } => matches!(values.as_ref(), Column::Dict { .. }),
                _ => false,
            };
            if has_dict {
                *col = col.dict_decode();
            }
        }
    }

    /// Relabels the batch with `schema` when every column's physical storage
    /// is compatible with the schema's declared types (engines use this so
    /// wire accounting follows the *plan's* schema rather than whatever a
    /// generator tagged — e.g. trace replay infers U64 for U32 fields).
    /// Returns `false`, leaving the batch untouched, when the shapes don't
    /// line up.
    pub fn relabel(&mut self, schema: &SchemaRef) -> bool {
        fn compatible(dtype: DataType, col: &Column) -> bool {
            match col {
                Column::Bool(_) => dtype == DataType::Bool,
                Column::I64(_) => matches!(dtype, DataType::I32 | DataType::I64),
                Column::U64(_) => matches!(dtype, DataType::U32 | DataType::U64),
                Column::F64(_) => dtype == DataType::F64,
                Column::Str { .. } | Column::Dict { .. } => dtype == DataType::Str,
                Column::Opt { values, .. } => compatible(dtype, values),
            }
        }
        if schema.width() != self.columns.len()
            || !schema
                .fields()
                .iter()
                .zip(&self.columns)
                .all(|(f, c)| compatible(f.dtype, c))
        {
            return false;
        }
        self.schema = schema.clone();
        true
    }

    /// [`Batch::chunks`] of a batch the caller owns: one that fits in a
    /// single chunk is moved out whole, neither cloned nor re-sliced.
    pub fn into_chunks(self, rows: usize) -> impl Iterator<Item = Batch> {
        let rows = rows.max(1);
        let n = self.len();
        let (whole, split) = if n <= rows {
            (Some(self).filter(|b| !b.is_empty()), None)
        } else {
            (None, Some(self))
        };
        whole
            .into_iter()
            .chain(split.into_iter().flat_map(move |batch| {
                (0..n.div_ceil(rows)).map(move |c| batch.slice(c * rows..(c * rows + rows).min(n)))
            }))
    }

    /// Splits the batch into row chunks of at most `rows` each (the last
    /// chunk may be shorter). A batch that fits in one chunk is cloned
    /// whole without re-slicing; see [`Batch::into_chunks`] to move it.
    pub fn chunks(&self, rows: usize) -> impl Iterator<Item = Batch> + '_ {
        let rows = rows.max(1);
        let n = self.len();
        let count = if n == 0 { 0 } else { n.div_ceil(rows) };
        (0..count).map(move |c| {
            let start = c * rows;
            let end = (start + rows).min(n);
            if start == 0 && end == n {
                self.clone()
            } else {
                self.slice(start..end)
            }
        })
    }

    /// Total encoded size in bytes. Derived from [`layout`], so it agrees
    /// with [`Record::wire_size`] summed over rows by construction.
    pub fn wire_size(&self) -> usize {
        let mut size = self.len() * layout::row_envelope(&self.schema);
        for (field, col) in self.schema.fields().iter().zip(&self.columns) {
            size += col.wire_bytes(field.dtype);
        }
        size
    }
}

/// Incremental builder for one column.
pub struct ColumnBuilder {
    dtype: DataType,
    bools: Vec<bool>,
    ints: Vec<i64>,
    uints: Vec<u64>,
    floats: Vec<f64>,
    offsets: Vec<u32>,
    strs: Vec<u8>,
    /// Validity, allocated lazily on the first `Null`.
    nulls: Option<Vec<bool>>,
    rows: usize,
}

impl ColumnBuilder {
    /// Creates a builder for a column of `dtype`, reserving `capacity` rows.
    pub fn new(dtype: DataType, capacity: usize) -> ColumnBuilder {
        let mut b = ColumnBuilder {
            dtype,
            bools: Vec::new(),
            ints: Vec::new(),
            uints: Vec::new(),
            floats: Vec::new(),
            offsets: Vec::new(),
            strs: Vec::new(),
            nulls: None,
            rows: 0,
        };
        match dtype {
            DataType::Bool => b.bools.reserve(capacity),
            DataType::I32 | DataType::I64 => b.ints.reserve(capacity),
            DataType::U32 | DataType::U64 => b.uints.reserve(capacity),
            DataType::F64 => b.floats.reserve(capacity),
            DataType::Str => {
                b.offsets.reserve(capacity + 1);
                b.offsets.push(0);
            }
        }
        b
    }

    fn mark(&mut self, valid: bool) {
        if let Some(nulls) = &mut self.nulls {
            nulls.push(valid);
        } else if !valid {
            let mut nulls = vec![true; self.rows];
            nulls.push(false);
            self.nulls = Some(nulls);
        }
        self.rows += 1;
    }

    /// Appends one value. `Null` is recorded in the validity mask with a
    /// type-default filler in the dense storage.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        let mismatch = || Error::TypeMismatch {
            expected: match self.dtype {
                DataType::Bool => "bool",
                DataType::I32 | DataType::I64 => "i64",
                DataType::U32 | DataType::U64 => "u64",
                DataType::F64 => "f64",
                DataType::Str => "str",
            },
            got: value.type_name(),
        };
        match self.dtype {
            DataType::Bool => self.bools.push(value.as_bool().ok_or_else(mismatch)?),
            DataType::I32 | DataType::I64 => self.ints.push(value.as_i64().ok_or_else(mismatch)?),
            DataType::U32 | DataType::U64 => match value {
                Value::U64(v) => self.uints.push(*v),
                Value::I64(v) if *v >= 0 => self.uints.push(*v as u64),
                _ => return Err(mismatch()),
            },
            DataType::F64 => self.floats.push(value.as_f64().ok_or_else(mismatch)?),
            DataType::Str => {
                let s = value.as_str().ok_or_else(mismatch)?;
                self.strs.extend_from_slice(s.as_bytes());
                self.offsets.push(self.strs.len() as u32);
            }
        }
        self.mark(true);
        Ok(())
    }

    /// Appends a `Null` row.
    pub fn push_null(&mut self) {
        match self.dtype {
            DataType::Bool => self.bools.push(false),
            DataType::I32 | DataType::I64 => self.ints.push(0),
            DataType::U32 | DataType::U64 => self.uints.push(0),
            DataType::F64 => self.floats.push(0.0),
            DataType::Str => self.offsets.push(self.strs.len() as u32),
        }
        self.mark(false);
    }

    /// Appends a string without constructing a `Value` (string columns only).
    pub fn push_str(&mut self, s: &str) -> Result<()> {
        if self.dtype != DataType::Str {
            return Err(Error::TypeMismatch {
                expected: "str column",
                got: "str",
            });
        }
        self.strs.extend_from_slice(s.as_bytes());
        self.offsets.push(self.strs.len() as u32);
        self.mark(true);
        Ok(())
    }

    /// Finishes the column.
    pub fn finish(self) -> Column {
        let dense = match self.dtype {
            DataType::Bool => Column::Bool(self.bools),
            DataType::I32 | DataType::I64 => Column::I64(self.ints),
            DataType::U32 | DataType::U64 => Column::U64(self.uints),
            DataType::F64 => Column::F64(self.floats),
            DataType::Str => {
                // Builder inputs are &str, so this can only fire if a raw
                // construction path bypasses the builder API.
                debug_assert!(
                    std::str::from_utf8(&self.strs).is_ok(),
                    "Column::Str invariant violated: builder holds non-UTF-8"
                );
                Column::Str {
                    offsets: self.offsets,
                    data: Bytes::from(self.strs),
                }
            }
        };
        match self.nulls {
            Some(valid) => Column::Opt {
                valid,
                values: Box::new(dense),
            },
            None => dense,
        }
    }
}

/// Incremental row-at-a-time builder for a whole batch (operator emission
/// paths that compute output rows, e.g. closed-window aggregates).
pub struct BatchBuilder {
    schema: SchemaRef,
    timestamps: Vec<Ts>,
    builders: Vec<ColumnBuilder>,
}

impl BatchBuilder {
    /// Creates a builder for `schema`, reserving `capacity` rows.
    pub fn new(schema: SchemaRef, capacity: usize) -> BatchBuilder {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype, capacity))
            .collect();
        BatchBuilder {
            schema,
            timestamps: Vec::with_capacity(capacity),
            builders,
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Appends one row from a timestamp and positional values.
    pub fn push_row(&mut self, ts: Ts, values: &[Value]) -> Result<()> {
        if values.len() != self.builders.len() {
            return Err(Error::InvalidPlan(format!(
                "row width {} does not match schema width {}",
                values.len(),
                self.builders.len()
            )));
        }
        self.timestamps.push(ts);
        for (builder, value) in self.builders.iter_mut().zip(values) {
            builder.push(value)?;
        }
        Ok(())
    }

    /// Appends one record.
    pub fn push_record(&mut self, rec: &Record) -> Result<()> {
        self.push_row(rec.ts, &rec.values)
    }

    /// Finishes the batch.
    pub fn finish(self) -> Batch {
        Batch {
            schema: self.schema,
            timestamps: self.timestamps,
            columns: self
                .builders
                .into_iter()
                .map(ColumnBuilder::finish)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::wire_size_of;
    use crate::schema::Field;

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("id", DataType::U32),
            Field::new("score", DataType::F64),
            Field::new("tag", DataType::Str),
        ])
    }

    fn records() -> Vec<Record> {
        vec![
            Record::new(1, vec![Value::U64(7), Value::F64(0.5), Value::str("a")]),
            Record::new(2, vec![Value::U64(8), Value::F64(1.5), Value::str("bc")]),
            Record::new(3, vec![Value::U64(9), Value::F64(2.5), Value::str("")]),
        ]
    }

    #[test]
    fn round_trip_preserves_records() {
        let s = schema();
        let recs = records();
        let batch = Batch::from_records(s.clone(), &recs).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.to_records(), recs);
    }

    #[test]
    fn wire_size_matches_row_accounting() {
        let s = schema();
        let recs = records();
        let batch = Batch::from_records(s.clone(), &recs).unwrap();
        assert_eq!(batch.wire_size(), wire_size_of(&recs, &s));
    }

    #[test]
    fn wire_size_matches_row_accounting_with_nulls() {
        // The batch layout is the single source of truth: rows with Null
        // values must account identically through both paths.
        let s = schema();
        let recs = vec![
            Record::new(1, vec![Value::U64(7), Value::Null, Value::str("xy")]),
            Record::new(2, vec![Value::U64(8), Value::F64(1.0), Value::Null]),
        ];
        let batch = Batch::from_records(s.clone(), &recs).unwrap();
        assert_eq!(batch.wire_size(), wire_size_of(&recs, &s));
        assert_eq!(batch.to_records(), recs);
    }

    #[test]
    fn concat_preserves_rows_across_physical_layouts() {
        // Dense numerics extend in place; a nullable side and a dictionary
        // side force the value-wise rebuild. Rows must come out the same.
        let s = schema();
        let plain = Batch::from_records(s.clone(), &records()).unwrap();
        let nullable = Batch::from_records(
            s.clone(),
            &[Record::new(
                4,
                vec![Value::U64(1), Value::Null, Value::str("a")],
            )],
        )
        .unwrap();
        let mut dict = plain.clone();
        assert!(dict.dict_encode(8));
        let parts = [plain.clone(), nullable.clone(), dict.clone()];
        let all = Batch::concat(s.clone(), &parts);
        let expected: Vec<Record> = parts.iter().flat_map(Batch::to_records).collect();
        assert_eq!(all.len(), 7);
        assert_eq!(all.to_records(), expected);
        assert!(Batch::concat(s, &[]).is_empty());
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let s = schema();
        let bad = vec![Record::new(0, vec![Value::U64(1)])];
        assert!(Batch::from_records(s, &bad).is_err());
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let s = schema();
        let bad = vec![Record::new(
            0,
            vec![Value::str("not-u32"), Value::F64(0.0), Value::str("x")],
        )];
        assert!(matches!(
            Batch::from_records(s, &bad),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn empty_batch_round_trips() {
        let s = schema();
        let batch = Batch::from_records(s, &[]).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.to_records(), Vec::<Record>::new());
        assert_eq!(batch.wire_size(), 0);
    }

    #[test]
    fn column_is_empty_tracks_rows() {
        let empty = ColumnBuilder::new(DataType::Str, 0).finish();
        assert!(empty.is_empty());
        let mut b = ColumnBuilder::new(DataType::Str, 1);
        b.push(&Value::str("x")).unwrap();
        let col = b.finish();
        assert!(!col.is_empty());
        assert_eq!(col.len(), 1);
    }

    #[test]
    fn slice_copies_a_row_range() {
        let s = schema();
        let recs = records();
        let batch = Batch::from_records(s, &recs).unwrap();
        let mid = batch.slice(1..3);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid.to_records(), recs[1..3].to_vec());
        let empty = batch.slice(2..2);
        assert!(empty.is_empty());
        // Slicing must not disturb string offsets of later rows.
        assert_eq!(mid.columns[2].str_at(0), Some("bc"));
        assert_eq!(mid.columns[2].str_at(1), Some(""));
    }

    #[test]
    fn select_gathers_masked_rows() {
        let s = schema();
        let recs = records();
        let batch = Batch::from_records(s, &recs).unwrap();
        let picked = batch.select(&[true, false, true]);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked.to_records(), vec![recs[0].clone(), recs[2].clone()]);
        assert!(batch.select(&[false, false, false]).is_empty());
    }

    #[test]
    fn slice_and_select_preserve_nulls() {
        let s = schema();
        let recs = vec![
            Record::new(1, vec![Value::U64(1), Value::Null, Value::str("a")]),
            Record::new(2, vec![Value::U64(2), Value::F64(2.0), Value::Null]),
            Record::new(3, vec![Value::Null, Value::F64(3.0), Value::str("c")]),
        ];
        let batch = Batch::from_records(s, &recs).unwrap();
        assert_eq!(batch.slice(1..3).to_records(), recs[1..3].to_vec());
        assert_eq!(
            batch.select(&[true, false, true]).to_records(),
            vec![recs[0].clone(), recs[2].clone()]
        );
    }

    #[test]
    fn relabel_requires_physical_compatibility() {
        let recs = records();
        let mut batch = Batch::from_records(schema(), &recs).unwrap();
        // Same storage classes, different declared widths: compatible.
        let wider = Schema::with_overhead(
            vec![
                Field::new("id", DataType::U64),
                Field::new("score", DataType::F64),
                Field::new("tag", DataType::Str),
            ],
            50,
        );
        assert!(batch.relabel(&wider));
        assert_eq!(batch.schema, wider);
        assert_eq!(
            batch.wire_size(),
            3 * (8 + 50 + 8 + 8) + (2 + 1) + (2 + 2) + 2
        );
        // Type-incompatible relabel is refused and leaves the batch alone.
        let wrong = Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::F64),
            Field::new("c", DataType::Str),
        ]);
        assert!(!batch.relabel(&wrong));
        assert_eq!(batch.schema, wider);
        // Width mismatch is refused too.
        assert!(!batch.relabel(&Schema::new(vec![Field::new("x", DataType::U64)])));
    }

    #[test]
    fn chunks_cover_all_rows_in_order() {
        let s = schema();
        let recs = records();
        let batch = Batch::from_records(s, &recs).unwrap();
        let chunks: Vec<Batch> = batch.chunks(2).collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), 2);
        assert_eq!(chunks[1].len(), 1);
        let rows: Vec<Record> = chunks.iter().flat_map(Batch::to_records).collect();
        assert_eq!(rows, recs);
        // Whole batch in one chunk; empty batch yields no chunks.
        assert_eq!(batch.chunks(10).count(), 1);
        assert_eq!(batch.slice(0..0).chunks(4).count(), 0);
        // The owning form yields the same chunks, and moves a batch that
        // fits one chunk: its columns keep their allocations.
        for rows in [1, 2, 3, 10] {
            let owned: Vec<Batch> = batch.clone().into_chunks(rows).collect();
            assert_eq!(owned, batch.chunks(rows).collect::<Vec<_>>());
        }
        assert_eq!(batch.slice(0..0).into_chunks(4).count(), 0);
        let whole = batch.clone();
        let at = whole.timestamps.as_ptr();
        let moved: Vec<Batch> = whole.into_chunks(3).collect();
        assert_eq!(moved[0].timestamps.as_ptr(), at);
    }

    fn dict_col(entries: &[&str], codes: &[u32]) -> Column {
        Column::Dict {
            codes: codes.to_vec(),
            dict: Arc::new(StrDict::from_entries(entries)),
        }
    }

    #[test]
    fn dict_column_reads_like_strings() {
        let col = dict_col(&["cpu util", "memory util"], &[0, 1, 0, 0]);
        assert_eq!(col.len(), 4);
        assert_eq!(col.str_at(2), Some("cpu util"));
        assert_eq!(col.value(1), Value::str("memory util"));
        assert_eq!(col.f64_at(0), None);
    }

    #[test]
    fn dict_builder_interns_and_handles_nulls() {
        let mut b = DictBuilder::new(4);
        b.push("a");
        b.push("b");
        b.push_null();
        b.push("a");
        let col = b.finish();
        let Column::Opt { valid, values } = &col else {
            panic!("nulls must wrap in Opt");
        };
        assert_eq!(valid, &vec![true, true, false, true]);
        let (dict, codes) = values.as_dict().expect("dense dict inside");
        assert_eq!(dict.len(), 2, "repeated values are interned");
        assert_eq!(codes, &[0, 1, 0, 0]);
        assert_eq!(col.str_at(3), Some("a"));
        assert_eq!(col.value(2), Value::Null);
    }

    #[test]
    fn dict_slice_select_gather_share_the_dictionary() {
        let col = dict_col(&["x", "y", "z"], &[0, 1, 2, 1, 0]);
        let sliced = col.slice(1..4);
        assert_eq!(sliced.str_at(0), Some("y"));
        let picked = col.select(&[true, false, false, true, true]);
        assert_eq!(picked.len(), 3);
        assert_eq!(picked.str_at(1), Some("y"));
        let gathered = col.gather(&[4, 4, 2]);
        assert_eq!(gathered.str_at(0), Some("x"));
        assert_eq!(gathered.str_at(2), Some("z"));
        for derived in [&sliced, &picked, &gathered] {
            let (da, _) = derived.as_dict().unwrap();
            let (db, _) = col.as_dict().unwrap();
            assert!(std::ptr::eq(da, db), "dictionary page must be shared");
        }
    }

    #[test]
    fn gather_matches_select_on_all_column_shapes() {
        let s = schema();
        let recs = vec![
            Record::new(1, vec![Value::U64(1), Value::Null, Value::str("a")]),
            Record::new(2, vec![Value::U64(2), Value::F64(2.0), Value::Null]),
            Record::new(3, vec![Value::Null, Value::F64(3.0), Value::str("c")]),
        ];
        let batch = Batch::from_records(s, &recs).unwrap();
        assert_eq!(
            batch.gather(&[0, 2]).to_records(),
            batch.select(&[true, false, true]).to_records()
        );
        // Duplicates are allowed.
        assert_eq!(batch.gather(&[1, 1]).to_records()[0], recs[1]);
    }

    #[test]
    fn dict_encode_round_trips_and_respects_cardinality() {
        let s = schema();
        let recs: Vec<Record> = (0..20)
            .map(|i| {
                Record::new(
                    i,
                    vec![
                        Value::U64(i as u64),
                        Value::F64(i as f64),
                        Value::str(["t0", "t1", "t2"][i as usize % 3]),
                    ],
                )
            })
            .collect();
        let plain = Batch::from_records(s, &recs).unwrap();
        let mut encoded = plain.clone();
        assert!(encoded.dict_encode(16));
        assert!(matches!(encoded.columns[2], Column::Dict { .. }));
        assert!(
            matches!(encoded.columns[0], Column::U64(_)),
            "numeric columns untouched"
        );
        // The logical rows are identical either way.
        assert_eq!(encoded.to_records(), recs);
        let mut back = encoded.clone();
        back.dict_decode();
        assert_eq!(back, plain);
        // Cardinality above the bound refuses to encode.
        assert!(plain.columns[2].dict_encode(2).is_none());
        // Values beyond the wire's u16 length prefix refuse to encode too
        // (they would truncate on the dictionary page).
        let huge = "x".repeat(u16::MAX as usize + 1);
        let long_recs = vec![Record::new(0, vec![Value::str(&huge)])];
        let long = Batch::from_records(
            Schema::new(vec![Field::new("t", DataType::Str)]),
            &long_recs,
        )
        .unwrap();
        assert!(long.columns[0].dict_encode(16).is_none());
    }

    #[test]
    fn all_null_string_column_survives_dict_round_trip() {
        // An all-null Opt string column dict-encodes to an *empty*
        // dictionary with code-0 fillers; decoding it back must not read
        // the dictionary.
        let s = Schema::new(vec![Field::new("t", DataType::Str)]);
        let recs = vec![
            Record::new(0, vec![Value::Null]),
            Record::new(1, vec![Value::Null]),
        ];
        let plain = Batch::from_records(s, &recs).unwrap();
        let mut enc = plain.clone();
        assert!(enc.dict_encode(8));
        let Column::Opt { values, .. } = &enc.columns[0] else {
            panic!("nullable column expected");
        };
        assert_eq!(values.as_dict().unwrap().0.len(), 0, "empty dictionary");
        assert_eq!(enc.to_records(), recs);
        let mut back = enc.clone();
        back.dict_decode();
        assert_eq!(back, plain);
    }

    #[test]
    fn dict_wire_accounting_agrees_between_row_and_batch_views() {
        // The batch view charges the dictionary page once plus one code per
        // row; the row view of the same column is per-row codes over the
        // shared page. layout:: is the single source of truth for both.
        let col = dict_col(&["tenant-a", "tenant-bb"], &[0, 1, 0, 1, 1]);
        let (dict, codes) = col.as_dict().unwrap();
        let page = layout::dict_page_bytes(dict);
        assert_eq!(
            page,
            layout::DICT_PAGE_HEADER_BYTES
                + layout::str_bytes("tenant-a".len())
                + layout::str_bytes("tenant-bb".len())
        );
        let row_view: usize = codes.iter().map(|_| layout::DICT_CODE_BYTES).sum();
        assert_eq!(col.wire_bytes(DataType::Str), page + row_view);
        assert_eq!(
            col.wire_bytes(DataType::Str),
            layout::dict_bytes(dict, col.len())
        );
        // Empty columns ship nothing, page included.
        assert_eq!(col.slice(0..0).wire_bytes(DataType::Str), 0);
    }

    #[test]
    fn dict_encoding_shrinks_wire_size_for_low_cardinality() {
        let s = Schema::new(vec![Field::new("tenant", DataType::Str)]);
        let recs: Vec<Record> = (0..200)
            .map(|i| Record::new(i, vec![Value::str(format!("tenant-{}", i % 4))]))
            .collect();
        let plain = Batch::from_records(s, &recs).unwrap();
        let mut enc = plain.clone();
        assert!(enc.dict_encode(64));
        assert!(
            enc.wire_size() < plain.wire_size(),
            "dict {} must beat plain {}",
            enc.wire_size(),
            plain.wire_size()
        );
    }

    #[test]
    fn chunked_dict_batches_each_carry_their_page() {
        // Engines charge wire bytes per shipped chunk; a dict chunk pays
        // its dictionary page again, exactly as the encoder serialises it.
        let s = Schema::new(vec![Field::new("tag", DataType::Str)]);
        let batch = Batch {
            schema: s,
            timestamps: (0..10).collect(),
            columns: vec![dict_col(&["aa", "bb"], &[0, 1, 0, 1, 0, 1, 0, 1, 0, 1])],
        };
        let chunks: Vec<Batch> = batch.chunks(4).collect();
        assert_eq!(chunks.len(), 3);
        let whole = batch.wire_size();
        let summed: usize = chunks.iter().map(Batch::wire_size).sum();
        let (dict, _) = batch.columns[0].as_dict().unwrap();
        // Two extra page copies for the two extra chunks.
        assert_eq!(summed, whole + 2 * layout::dict_page_bytes(dict));
        // And every chunk's size equals its own layout-derived accounting.
        for c in &chunks {
            assert_eq!(
                c.wire_size(),
                c.len() * layout::row_envelope(&c.schema) + layout::dict_bytes(dict, c.len())
            );
        }
    }

    #[test]
    fn stream_dict_codes_are_stable_and_snapshots_share_pages() {
        let mut sd = StreamDict::new();
        assert_ne!(sd.id(), 0, "persistent dictionaries get a non-zero id");
        assert_eq!(sd.intern("a"), 0);
        assert_eq!(sd.intern("b"), 1);
        assert_eq!(sd.intern("a"), 0, "codes never remap");
        assert_eq!(sd.version(), 2);
        let snap1 = sd.snapshot();
        let snap2 = sd.snapshot();
        assert!(
            Arc::ptr_eq(&snap1, &snap2),
            "unchanged dictionary reuses the snapshot Arc"
        );
        assert_eq!(snap1.id(), sd.id());
        sd.intern("c");
        let snap3 = sd.snapshot();
        assert!(!Arc::ptr_eq(&snap1, &snap3), "growth republishes");
        assert_eq!(snap3.len(), 3);
        // Earlier snapshots stay valid for their prefix (append-only).
        assert_eq!(snap1.get(1), "b");
        // Two streams never share an id.
        assert_ne!(StreamDict::new().id(), sd.id());
    }

    #[test]
    fn dict_delta_round_trips_and_rejects_out_of_order() {
        let mut sender = StreamDict::new();
        sender.intern("x");
        sender.intern("y");
        let first = sender.delta_since(0);
        assert_eq!(first.base, 0);
        assert_eq!(first.entries, vec!["x".to_string(), "y".to_string()]);
        let mut mirror = StreamDict::new();
        mirror.apply_delta(&first).unwrap();
        sender.intern("z");
        let second = sender.delta_since(2);
        assert_eq!(second.entries, vec!["z".to_string()]);
        // Replaying the first delta (mirror already past it) is an error.
        assert!(mirror.apply_delta(&first).is_err());
        mirror.apply_delta(&second).unwrap();
        assert_eq!(mirror.version(), sender.version());
        for c in 0..sender.version() {
            assert_eq!(mirror.get(c), sender.get(c));
        }
        // Skipping a delta is an error too.
        sender.intern("w");
        sender.intern("v");
        let skipped = sender.delta_since(4);
        assert!(mirror.apply_delta(&skipped).is_err());
        // A synced mirror receives an empty delta.
        assert!(sender.delta_since(sender.version()).entries.is_empty());
    }

    #[test]
    fn dict_encode_with_keeps_codes_stable_across_batches() {
        let s = Schema::new(vec![Field::new("t", DataType::Str)]);
        let mut stream = StreamDict::new();
        let batch = |names: &[&str]| {
            let recs: Vec<Record> = names
                .iter()
                .enumerate()
                .map(|(i, n)| Record::new(i as Ts, vec![Value::str(*n)]))
                .collect();
            Batch::from_records(s.clone(), &recs).unwrap()
        };
        let b1 = batch(&["t0", "t1", "t0"]);
        let c1 = b1.columns[0].dict_encode_with(&mut stream, 64).unwrap();
        let b2 = batch(&["t1", "t2"]);
        let c2 = b2.columns[0].dict_encode_with(&mut stream, 64).unwrap();
        let (d1, codes1) = c1.as_dict().unwrap();
        let (d2, codes2) = c2.as_dict().unwrap();
        assert_eq!(codes1, &[0, 1, 0]);
        assert_eq!(codes2, &[1, 2], "t1 keeps its code in the next batch");
        assert_eq!(d1.id(), d2.id());
        assert_eq!((d1.len(), d2.len()), (2, 3));
        // Nulls stay behind a validity mask, as with DictBuilder.
        let nullable = Batch::from_records(
            s.clone(),
            &[
                Record::new(0, vec![Value::Null]),
                Record::new(1, vec![Value::str("t9")]),
            ],
        )
        .unwrap();
        let c3 = nullable.columns[0]
            .dict_encode_with(&mut stream, 64)
            .unwrap();
        let Column::Opt { valid, values } = &c3 else {
            panic!("nullable dict column expected");
        };
        assert_eq!(valid, &vec![false, true]);
        assert_eq!(values.as_dict().unwrap().1, &[0, 3]);
        // The cumulative cardinality bound refuses further novelty.
        let wide = batch(&["w0", "w1", "w2"]);
        assert!(wide.columns[0].dict_encode_with(&mut stream, 4).is_none());
    }

    #[test]
    fn relabel_accepts_dict_backed_str_fields() {
        let s = Schema::new(vec![Field::new("tag", DataType::Str)]);
        let mut batch = Batch {
            schema: s,
            timestamps: vec![0, 1],
            columns: vec![dict_col(&["a"], &[0, 0])],
        };
        let wider = Schema::with_overhead(vec![Field::new("tag", DataType::Str)], 10);
        assert!(batch.relabel(&wider));
        assert!(!batch.relabel(&Schema::new(vec![Field::new("tag", DataType::U64)])));
    }

    #[test]
    fn batch_builder_matches_from_records() {
        let s = schema();
        let recs = records();
        let mut b = BatchBuilder::new(s.clone(), recs.len());
        for r in &recs {
            b.push_record(r).unwrap();
        }
        assert_eq!(b.finish(), Batch::from_records(s, &recs).unwrap());
    }
}
