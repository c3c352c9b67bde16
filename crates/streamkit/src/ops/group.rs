//! Keyed, windowed, incrementally-updatable aggregation (the paper's `G+R`),
//! vectorized.
//!
//! The operator supports two *roles*:
//!
//! * [`AggRole::Final`] — the authoritative instance (stream processor, or a
//!   data source running the whole query): emits finalised result batches
//!   when a window closes, and optionally per-epoch deltas for live
//!   dashboards.
//! * [`AggRole::Partial`] — a source-side pre-aggregator under data-level
//!   partitioning: accumulates mergeable state for the records its control
//!   proxy forwarded locally and ships *state increments* to the replica via
//!   [`Operator::take_state_delta`]; it never emits result rows itself, so
//!   merged results are exact regardless of how records were split.
//!
//! Group state is **one table per open window**: window lifetime is part of
//! the state's shape, so closing a window is taking its table (no surviving
//! entry is touched, re-encoded or re-hashed), a watermark that closes
//! nothing costs a look at the oldest open window, and live state is bounded
//! by the windows the watermark leaves open rather than by run length.
//!
//! # Table layout
//!
//! A window's table is flat — three or four allocations however many groups
//! it holds, so a row costs a few cache lines and closing a window a few
//! `free`s:
//!
//! * an open-addressed **index** of `hash tag << 32 | slot` words, linearly
//!   probed, at most 3/4 full;
//! * a **key arena** holding each group's canonical encoding (the bytes
//!   [`encode_col_value`] / [`crate::shard::encode_value`] produce) back to
//!   back in slot order — at a fixed stride while every key has had the
//!   same length (wide integer keys), behind an offsets vector from the
//!   first key that differs (strings, nulls);
//! * a **state arena** of `aggs.len()` [`AggState`]s per slot;
//! * a **changed bitset** for per-epoch delta emission.
//!
//! Slots are handed out in first-sight order and never move, and tables are
//! visited in window order, so every exit — result rows, shipped state,
//! checkpoints — is in window order then insertion order: deterministic, a
//! requirement for reproducible experiments.
//!
//! Nothing on the row path or the state path builds a `Value`: keys are
//! encoded straight off column slices, compared as bytes, and aggregate
//! inputs are read natively. State leaves the operator as [`StatePartial`]
//! entries whose [`GroupKey`]s copy the arena's bytes (`take_state_delta`,
//! `checkpoint_state`), and shipped entries merge by probing with their
//! key bytes, folded like a batch ([`Operator::merge_state`]); result
//! batches are built column by column from the arenas.
//!
//! The index hash is a seeded word-wise mixer over the canonical encoding,
//! *not* the FNV-1a [`crate::shard`] routes by: every key that reaches a
//! shard's table already agrees on that hash modulo the shard count, so
//! indexing by it would fill a fraction of the buckets. The seed is drawn per
//! operator; results never depend on it because no exit is in index order.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, RandomState};

use crate::agg::{AggKind, AggSpec, AggState};
use crate::batch::{Batch, Column, ColumnBuilder, StrDict};
use crate::ops::{CostModel, GroupKey, GroupPartialEntry, OpKind, Operator, StatePartial};
use crate::schema::{DataType, Field, Schema, SchemaRef};
// The canonical key encoding lives in `crate::shard`: the shard router
// hashes the same bytes this table stores, which is what lets a sharded
// runtime route rows and shipped `StatePartial` entries to the shard owning
// their group key.
use crate::shard::{decode_value, encode_col_value, Decoded};
use crate::time::Ts;
use crate::window::TumblingWindow;

/// When results are emitted (Final role only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitMode {
    /// Emit each window's results once, when the watermark closes it.
    OnWindowClose,
    /// Additionally emit updated aggregates for changed groups every epoch
    /// (live-dashboard mode; this is the continuous result stream whose
    /// volume Fig. 3 accounts as G+R output).
    PerEpochDelta,
}

/// Whether this instance is authoritative or a source-side pre-aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggRole {
    /// Emits finalised results.
    Final,
    /// Accumulates mergeable partial state only.
    Partial,
}

/// An empty index word. No group's word equals it: slots stay below
/// `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// Index width of a table holding its first group.
const MIN_SLOTS: usize = 4;

/// Seeded word-wise multiply-fold mixer over a canonical key encoding. Every
/// bit of the result depends on every input word, so the index may take its
/// tag and home position from the high half.
fn hash_key(seed: u64, key: &[u8]) -> u64 {
    fn mix(h: u64, word: u64) -> u64 {
        let wide = u128::from(h ^ word) * 0x9E37_79B9_7F4A_7C15_u128;
        wide as u64 ^ (wide >> 64) as u64
    }
    let (words, _) = key.as_chunks::<8>();
    let mut h = seed ^ key.len() as u64;
    for word in words {
        h = mix(h, u64::from_le_bytes(*word));
    }
    // The last eight bytes again, overlapping the words above, cover a tail
    // of any length with one load.
    let tail = match key.last_chunk::<8>() {
        Some(last) => u64::from_le_bytes(*last),
        None => key.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)),
    };
    mix(h, tail)
}

fn arena_offset(n: usize) -> u32 {
    u32::try_from(n).expect("a window's key arena stays under 4 GiB")
}

/// The groups of **one window** (see the module docs for the layout). A
/// window's whole state — index and arenas — lives and dies with its table:
/// closing the window is taking the table out of the operator, which touches
/// no other window. An empty table owns no memory.
#[derive(Default)]
struct WindowTable {
    /// `hash tag << 32 | slot` words; empty or a power of two long. A word's
    /// home position is its tag's low bits, so growing re-places words
    /// without looking at a key.
    index: Vec<u64>,
    /// Canonical key encodings in slot order.
    keys: Vec<u8>,
    /// The length every key has had so far.
    stride: usize,
    /// `len + 1` key boundaries in `keys`, from the first key whose length
    /// was not `stride`; empty until then.
    bounds: Vec<u32>,
    /// One state per aggregate per slot.
    states: Vec<AggState>,
    /// One bit per slot: changed since the last per-epoch delta emission.
    changed: Vec<u64>,
    /// Groups held.
    len: usize,
}

impl WindowTable {
    /// Canonical encoding of the group in `slot`.
    #[inline]
    fn key(&self, slot: usize) -> &[u8] {
        match self.bounds.get(slot..slot + 2) {
            Some(b) => &self.keys[b[0] as usize..b[1] as usize],
            None => &self.keys[slot * self.stride..][..self.stride],
        }
    }

    #[inline]
    fn mark_changed(&mut self, slot: usize) {
        self.changed[slot / 64] |= 1 << (slot % 64);
    }

    fn is_changed(&self, slot: usize) -> bool {
        self.changed[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Bytes held by the index and the arenas.
    fn state_bytes(&self) -> usize {
        (self.index.capacity() + self.changed.capacity()) * size_of::<u64>()
            + self.keys.capacity()
            + self.bounds.capacity() * size_of::<u32>()
            + self.states.capacity() * size_of::<AggState>()
    }

    /// Doubles the index and sizes the arenas for the groups it can now
    /// take, so a table's footprint follows its group count in step.
    fn grow(&mut self, n_aggs: usize) {
        let slots = (self.index.len() * 2).max(MIN_SLOTS);
        let mut index = vec![EMPTY; slots];
        for &word in self.index.iter().filter(|&&w| w != EMPTY) {
            let mut pos = (word >> 32) as usize & (slots - 1);
            while index[pos] != EMPTY {
                pos = (pos + 1) & (slots - 1);
            }
            index[pos] = word;
        }
        self.index = index;
        let groups = slots / 4 * 3;
        self.states
            .reserve_exact((groups * n_aggs).saturating_sub(self.states.len()));
        if self.bounds.is_empty() {
            self.keys
                .reserve_exact((groups * self.stride).saturating_sub(self.keys.len()));
        }
    }

    /// The slot named by the word at `hash`'s home position when its tag
    /// matches, `u32::MAX` otherwise: a guess for the caller to confirm
    /// against the key bytes. Slots never move, so a guess stays good
    /// across later insertions.
    #[inline]
    fn guess(&self, hash: u64) -> u32 {
        let tag = hash >> 32;
        match self
            .index
            .get(tag as usize & self.index.len().wrapping_sub(1))
        {
            Some(&word) if word >> 32 == tag => word as u32,
            _ => u32::MAX,
        }
    }

    /// Slot of the group whose canonical key is `key` (hashing to `hash`),
    /// and whether this call created it. The caller pushes a created
    /// group's `n_aggs` states.
    #[inline]
    fn slot_of(&mut self, hash: u64, key: &[u8], n_aggs: usize) -> (usize, bool) {
        if (self.len + 1) * 4 > self.index.len() * 3 {
            self.grow(n_aggs);
        }
        let mask = self.index.len() - 1;
        let tag = hash >> 32;
        let mut pos = tag as usize & mask;
        loop {
            let word = self.index[pos];
            if word == EMPTY {
                break;
            }
            let slot = word as u32 as usize;
            if word >> 32 == tag && self.key(slot) == key {
                return (slot, false);
            }
            pos = (pos + 1) & mask;
        }
        let slot = self.len;
        assert!(slot < u32::MAX as usize, "under 2^32 groups per window");
        self.index[pos] = tag << 32 | slot as u64;
        if self.bounds.is_empty() {
            if slot == 0 {
                self.stride = key.len();
            } else if key.len() != self.stride {
                self.bounds = (0..=slot).map(|i| arena_offset(i * self.stride)).collect();
            }
        }
        self.keys.extend_from_slice(key);
        if !self.bounds.is_empty() {
            self.bounds.push(arena_offset(self.keys.len()));
        }
        if slot.is_multiple_of(64) {
            self.changed.push(0);
        }
        self.len += 1;
        (slot, true)
    }
}

/// The `G+R` operator.
pub struct GroupAggregateOp {
    keys: Vec<usize>,
    aggs: Vec<AggSpec>,
    window: TumblingWindow,
    emit: EmitMode,
    role: AggRole,
    /// One table per open window, by window start: results and shipped
    /// state leave in window order, then insertion order.
    windows: BTreeMap<Ts, WindowTable>,
    out_schema: SchemaRef,
    cost: CostModel,
    /// Seed of the index hash.
    seed: u64,
    /// Per-batch scratch, reused across batches (boundary batches are a few
    /// dozen rows: a handful of allocations per call would show): the rows'
    /// canonical keys back to back, their boundaries, their hashes and the
    /// slots they resolved to. `merge_state` reuses `hashes` and `slots` for
    /// shipped entries.
    scratch: Vec<u8>,
    key_bounds: Vec<usize>,
    hashes: Vec<u64>,
    slots: Vec<u32>,
    /// Canonical fragments per persistent dict id, extended append-only.
    frag_cache: HashMap<u64, KeyFrags>,
}

impl GroupAggregateOp {
    /// Creates the operator. The output schema is
    /// `[window_start: I64, <key fields>, <agg fields>]`.
    pub fn new(
        keys: Vec<usize>,
        aggs: Vec<AggSpec>,
        input_schema: &SchemaRef,
        window: TumblingWindow,
        emit: EmitMode,
        role: AggRole,
        cost: CostModel,
    ) -> GroupAggregateOp {
        let out_schema = Self::output_schema_for(&keys, &aggs, input_schema);
        GroupAggregateOp {
            keys,
            aggs,
            window,
            emit,
            role,
            windows: BTreeMap::new(),
            out_schema,
            cost,
            seed: RandomState::new().hash_one(0u8),
            scratch: Vec::new(),
            key_bounds: Vec::new(),
            hashes: Vec::new(),
            slots: Vec::new(),
            frag_cache: HashMap::new(),
        }
    }

    /// Computes the output schema without constructing the operator.
    pub fn output_schema_for(
        keys: &[usize],
        aggs: &[AggSpec],
        input_schema: &SchemaRef,
    ) -> SchemaRef {
        let mut fields = vec![Field::new("window_start", DataType::I64)];
        for &k in keys {
            fields.push(
                input_schema
                    .field(k)
                    .cloned()
                    .unwrap_or_else(|_| Field::new(format!("key{k}"), DataType::I64)),
            );
        }
        for spec in aggs {
            let dtype = match spec.kind {
                AggKind::Count => DataType::U64,
                _ => DataType::F64,
            };
            fields.push(Field::new(spec.name.clone(), dtype));
        }
        Schema::with_overhead(fields, input_schema.record_overhead())
    }

    /// Live group count, across every open window.
    pub fn group_count(&self) -> usize {
        self.windows.values().map(|t| t.len).sum()
    }

    /// Windows currently holding state.
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Bytes of group state held: index and arena capacities of every open
    /// window (sketches behind `ApproxQuantile` states not included).
    pub fn state_bytes(&self) -> usize {
        self.windows.values().map(WindowTable::state_bytes).sum()
    }

    /// This instance's role.
    pub fn role(&self) -> AggRole {
        self.role
    }

    /// Builds one result batch (none for no groups) for the listed
    /// `(window start, table, slot)`s, column by column from the arenas:
    /// keys are decoded into their columns, aggregates finalised into
    /// theirs, with a validity mask where a state finalises to `Null`.
    fn emit_batch<'a>(
        &self,
        groups: impl Iterator<Item = (Ts, &'a WindowTable, usize)>,
        out: &mut Vec<Batch>,
    ) {
        const FITS: &str = "result rows match the output schema";
        let rows = groups.size_hint().0;
        let n_aggs = self.aggs.len();
        let mut timestamps = Vec::with_capacity(rows);
        let mut starts = Vec::with_capacity(rows);
        let mut cols: Vec<ColumnBuilder> = self.out_schema.fields()[1..]
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype, rows))
            .collect();
        let (key_cols, agg_cols) = cols.split_at_mut(self.keys.len());
        for (window_start, table, slot) in groups {
            // Result timestamp is the window end, the event-time point at
            // which the result is complete.
            timestamps.push(window_start + self.window.size);
            starts.push(window_start);
            let mut key = table.key(slot);
            for col in key_cols.iter_mut() {
                match decode_value(&mut key) {
                    Decoded::Str(s) => col.push_str(s),
                    Decoded::Scalar(v) => col.push(&v),
                }
                .expect(FITS);
            }
            let states = &table.states[slot * n_aggs..][..n_aggs];
            for (col, state) in agg_cols.iter_mut().zip(states) {
                col.push(&state.finalize()).expect(FITS);
            }
        }
        if timestamps.is_empty() {
            return;
        }
        let mut columns = vec![Column::I64(starts)];
        columns.extend(cols.into_iter().map(ColumnBuilder::finish));
        out.push(Batch {
            schema: self.out_schema.clone(),
            timestamps,
            columns,
        });
    }
}

/// Canonical key fragments for one dictionary: the byte encoding of each
/// entry, so every row is a bounds-free memcpy. Batch-local dictionaries
/// (id 0) build these once per batch; persistent dictionaries keep one
/// `KeyFrags` per dict id in the operator and extend it append-only as the
/// dictionary grows, so steady-state batches skip the rebuild entirely.
struct KeyFrags {
    arena: Vec<u8>,
    bounds: Vec<u32>,
}

impl KeyFrags {
    fn new() -> KeyFrags {
        KeyFrags {
            arena: Vec::new(),
            bounds: vec![0u32],
        }
    }

    fn for_dict(dict: &StrDict) -> KeyFrags {
        let mut frags = KeyFrags::new();
        frags.extend_to(dict);
        frags
    }

    /// Number of entries encoded so far.
    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Appends fragments for any dictionary entries beyond the ones already
    /// encoded. Persistent dictionaries are append-only, so the existing
    /// prefix stays canonical; a snapshot older than the cache is a no-op
    /// (its codes all index the valid prefix).
    fn extend_to(&mut self, dict: &StrDict) {
        for entry in dict.iter().skip(self.len()) {
            self.arena.push(5);
            self.arena
                .extend_from_slice(&(entry.len() as u32).to_le_bytes());
            self.arena.extend_from_slice(entry.as_bytes());
            self.bounds.push(self.arena.len() as u32);
        }
    }

    #[inline]
    fn append(&self, buf: &mut Vec<u8>, code: u32) {
        let lo = self.bounds[code as usize] as usize;
        let hi = self.bounds[code as usize + 1] as usize;
        buf.extend_from_slice(&self.arena[lo..hi]);
    }
}

/// Per-batch encoder for one group-key column. Dict columns key by code —
/// the code indexes a precomputed canonical fragment, so the bytes stay
/// identical to the same string in a plain column (the group table persists
/// across batches whose dictionaries may differ).
enum KeyEnc<'a> {
    Dict {
        codes: &'a [u32],
        frags: &'a KeyFrags,
    },
    Generic(&'a Column),
}

impl KeyEnc<'_> {
    #[inline]
    fn encode_row(&self, buf: &mut Vec<u8>, row: usize) {
        match self {
            KeyEnc::Dict { codes, frags } => frags.append(buf, codes[row]),
            KeyEnc::Generic(col) => encode_col_value(buf, col, row),
        }
    }
}

/// Encodes every row's canonical key back to back into `out`; row `i`'s key
/// is `out[bounds[i]..bounds[i + 1]]`.
fn encode_keys(encs: &[KeyEnc], rows: usize, out: &mut Vec<u8>, bounds: &mut Vec<usize>) {
    out.clear();
    bounds.clear();
    bounds.push(0);
    // Dense 64-bit columns only — the wide-int shape: every value is nine
    // bytes, so columns are written one at a time at a fixed row pitch
    // instead of appended value by value.
    let words_only = encs.iter().all(|e| {
        matches!(
            e,
            KeyEnc::Generic(Column::I64(_) | Column::U64(_) | Column::F64(_))
        )
    });
    if words_only {
        fn put(out: &mut [u8], pitch: usize, tag: u8, words: impl Iterator<Item = u64>) {
            for (row, word) in words.enumerate() {
                let at = &mut out[row * pitch..][..9];
                at[0] = tag;
                at[1..].copy_from_slice(&word.to_le_bytes());
            }
        }
        let pitch = 9 * encs.len();
        out.resize(rows * pitch, 0);
        for (i, enc) in encs.iter().enumerate() {
            let out = &mut out[9 * i..];
            match enc {
                KeyEnc::Generic(Column::I64(v)) => put(out, pitch, 2, v.iter().map(|&x| x as u64)),
                KeyEnc::Generic(Column::U64(v)) => put(out, pitch, 3, v.iter().copied()),
                KeyEnc::Generic(Column::F64(v)) => {
                    put(out, pitch, 4, v.iter().map(|x| x.to_bits()));
                }
                _ => unreachable!("words_only admits no other encoder"),
            }
        }
        bounds.extend((1..=rows).map(|row| row * pitch));
        return;
    }
    for row in 0..rows {
        for enc in encs {
            enc.encode_row(out, row);
        }
        bounds.push(out.len());
    }
}

/// Keeps per-operator [`KeyFrags`] caches bounded: an operator normally sees
/// one persistent dictionary per key column, so hitting this means dict ids
/// are churning (e.g. streams being recreated) and caching stopped paying.
const MAX_FRAG_CACHE: usize = 1024;

/// Borrowed numeric view of an aggregate input column, hoisted out of the
/// row loop.
enum NumView<'a> {
    F64(&'a [f64]),
    I64(&'a [i64]),
    U64(&'a [u64]),
    Bool(&'a [bool]),
    /// String / dict / missing column: no numeric values.
    None,
}

/// An aggregate input: dense numeric view + optional validity slice
/// (null-aware: invalid rows are skipped, as the scalar path skips `Null`).
struct AggInput<'a> {
    view: NumView<'a>,
    valid: Option<&'a [bool]>,
}

fn agg_input(col: Option<&Column>) -> AggInput<'_> {
    match col {
        Some(Column::F64(v)) => AggInput {
            view: NumView::F64(v),
            valid: None,
        },
        Some(Column::I64(v)) => AggInput {
            view: NumView::I64(v),
            valid: None,
        },
        Some(Column::U64(v)) => AggInput {
            view: NumView::U64(v),
            valid: None,
        },
        Some(Column::Bool(v)) => AggInput {
            view: NumView::Bool(v),
            valid: None,
        },
        Some(Column::Opt { valid, values }) => AggInput {
            view: agg_input(Some(values)).view,
            valid: Some(valid),
        },
        Some(Column::Str { .. } | Column::Dict { .. }) | None => AggInput {
            view: NumView::None,
            valid: None,
        },
    }
}

impl AggInput<'_> {
    /// The row's value when it is numeric and valid.
    #[inline]
    fn at(&self, row: usize) -> Option<f64> {
        if self.valid.is_some_and(|valid| !valid[row]) {
            return None;
        }
        match self.view {
            NumView::F64(v) => Some(v[row]),
            NumView::I64(v) => Some(v[row] as f64),
            NumView::U64(v) => Some(v[row] as f64),
            NumView::Bool(v) => Some(if v[row] { 1.0 } else { 0.0 }),
            NumView::None => None,
        }
    }
}

impl GroupAggregateOp {
    /// Folds a batch whose rows all belong to the window starting at `ws`
    /// into that window's table.
    ///
    /// Pass 1 resolves every row to its group slot. The rows' canonical
    /// keys are encoded and hashed into operator-owned scratch, each row
    /// then takes a guess at its slot from the index alone, and a last loop
    /// confirms the guess against the key bytes or probes for real: three
    /// short loops whose rows are independent, so their cache misses
    /// overlap instead of queueing behind one another.
    ///
    /// Pass 2 folds one aggregate at a time over the resolved slots: the
    /// first aggregate's loop takes the state arena's misses, again
    /// overlapped, and the others find their neighbours cached. Semantics
    /// match the scalar path exactly — see [`AggState::fold`].
    fn fold_window(&mut self, ws: Ts, batch: &Batch) {
        let GroupAggregateOp {
            keys,
            aggs,
            windows,
            seed,
            scratch,
            key_bounds,
            hashes,
            slots,
            frag_cache,
            ..
        } = self;
        // Dict key columns encode through per-code canonical fragments.
        // Persistent dictionaries (id ≠ 0) keep those in the operator and
        // extend them append-only; batch-local pages rebuild per batch.
        let key_cols = || keys.iter().map(|&k| &batch.columns[k]);
        if frag_cache.len() > MAX_FRAG_CACHE {
            frag_cache.clear();
        }
        let mut local_frags = Vec::new();
        for col in key_cols() {
            if let Column::Dict { dict, .. } = col {
                if dict.id() == 0 {
                    local_frags.push(KeyFrags::for_dict(dict));
                } else {
                    frag_cache
                        .entry(dict.id())
                        .or_insert_with(KeyFrags::new)
                        .extend_to(dict);
                }
            }
        }
        let mut next_local = local_frags.iter();
        let encs: Vec<KeyEnc> = key_cols()
            .map(|c| match c {
                Column::Dict { codes, dict } => KeyEnc::Dict {
                    codes,
                    frags: if dict.id() != 0 {
                        &frag_cache[&dict.id()]
                    } else {
                        next_local.next().expect("one local frag per id-0 dict")
                    },
                },
                other => KeyEnc::Generic(other),
            })
            .collect();
        let n = batch.len();
        let n_aggs = aggs.len();
        let table = windows.entry(ws).or_default();
        encode_keys(&encs, n, scratch, key_bounds);
        let key_of = |row: usize| &scratch[key_bounds[row]..key_bounds[row + 1]];
        hashes.clear();
        hashes.extend((0..n).map(|row| hash_key(*seed, key_of(row))));
        slots.clear();
        slots.extend(hashes.iter().map(|&hash| table.guess(hash)));
        for (row, slot) in slots.iter_mut().enumerate() {
            let key = key_of(row);
            if *slot == u32::MAX || table.key(*slot as usize) != key {
                let (found, created) = table.slot_of(hashes[row], key, n_aggs);
                if created {
                    table.states.extend(aggs.iter().map(AggSpec::init));
                }
                *slot = found as u32;
            }
        }

        for &slot in slots.iter() {
            table.mark_changed(slot as usize);
        }
        for (j, spec) in aggs.iter().enumerate() {
            let input = agg_input(batch.columns.get(spec.col));
            for (row, &slot) in slots.iter().enumerate() {
                table.states[slot as usize * n_aggs + j].fold(input.at(row));
            }
        }
    }
}

impl Operator for GroupAggregateOp {
    fn kind(&self) -> OpKind {
        OpKind::GroupAggregate
    }

    fn output_schema(&self) -> SchemaRef {
        self.out_schema.clone()
    }

    fn process_batch(&mut self, batch: Batch, _out: &mut Vec<Batch>) {
        let Some(&first) = batch.timestamps.first() else {
            return;
        };
        // A batch nearly always sits inside one window (epochs are shorter
        // than windows); one that straddles a boundary — or an unsorted
        // replay spanning many — is split by window first, so the fold
        // kernels only ever see one table.
        let lo = self.window.start_of(first);
        let hi = lo + self.window.size;
        if batch.timestamps.iter().all(|&ts| lo <= ts && ts < hi) {
            self.fold_window(lo, &batch);
            return;
        }
        let mut by_window: BTreeMap<Ts, Vec<u32>> = BTreeMap::new();
        for (row, &ts) in batch.timestamps.iter().enumerate() {
            by_window
                .entry(self.window.start_of(ts))
                .or_default()
                .push(row as u32);
        }
        for (ws, rows) in by_window {
            self.fold_window(ws, &batch.gather(&rows));
        }
    }

    fn on_watermark(&mut self, wm: Ts, out: &mut Vec<Batch>) {
        // Partial role never emits: its state (including closed windows) is
        // shipped wholesale by take_state_delta at the ship interval.
        if self.role != AggRole::Final {
            return;
        }
        // Closing a window is taking its table: a watermark that closes
        // nothing stops at the oldest open window and touches no entry.
        while let Some(oldest) = self.windows.first_entry() {
            if !self.window.is_closed(*oldest.key(), wm) {
                break;
            }
            let (ws, table) = oldest.remove_entry();
            self.emit_batch((0..table.len).map(|slot| (ws, &table, slot)), out);
        }
    }

    fn on_epoch(&mut self, out: &mut Vec<Batch>) {
        if self.role == AggRole::Final && self.emit == EmitMode::PerEpochDelta {
            let changed = self.windows.iter().flat_map(|(&ws, table)| {
                (0..table.len)
                    .filter(|&slot| table.is_changed(slot))
                    .map(move |slot| (ws, table, slot))
            });
            self.emit_batch(changed, out);
            for table in self.windows.values_mut() {
                table.changed.fill(0);
            }
        }
    }

    fn cost_us(&self) -> f64 {
        self.cost.cost_us(self.group_count())
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn state_size(&self) -> usize {
        self.group_count()
    }

    fn take_state_delta(&mut self) -> Option<StatePartial> {
        if self.role != AggRole::Partial || self.windows.is_empty() {
            return None;
        }
        let n_aggs = self.aggs.len();
        let mut entries = Vec::with_capacity(self.group_count());
        for (window_start, mut table) in std::mem::take(&mut self.windows) {
            let mut states = std::mem::take(&mut table.states).into_iter();
            entries.extend((0..table.len).map(|slot| GroupPartialEntry {
                window_start,
                key: GroupKey::from_canonical(table.key(slot)),
                states: states.by_ref().take(n_aggs).collect(),
            }));
        }
        Some(StatePartial::Group(entries))
    }

    fn checkpoint_state(&self) -> Option<StatePartial> {
        if self.windows.is_empty() {
            return None;
        }
        let n_aggs = self.aggs.len();
        let mut entries = Vec::with_capacity(self.group_count());
        for (&window_start, table) in &self.windows {
            entries.extend((0..table.len).map(|slot| GroupPartialEntry {
                window_start,
                key: GroupKey::from_canonical(table.key(slot)),
                states: table.states[slot * n_aggs..][..n_aggs].to_vec(),
            }));
        }
        Some(StatePartial::Group(entries))
    }

    /// Folds shipped entries the way `process_batch` folds a batch's rows:
    /// each stretch of consecutive entries of one window takes one table
    /// lookup, every entry's key bytes are hashed and its slot guessed
    /// before any guess is confirmed, and the states merge last. A group
    /// the table lacks adopts the entry's states as shipped.
    fn merge_state(&mut self, state: StatePartial) {
        let StatePartial::Group(mut entries) = state;
        let GroupAggregateOp {
            aggs,
            windows,
            seed,
            hashes,
            slots,
            ..
        } = self;
        let n_aggs = aggs.len();
        let mut rest = entries.as_mut_slice();
        while let Some(first) = rest.first() {
            let ws = first.window_start;
            let len = rest
                .iter()
                .position(|e| e.window_start != ws)
                .unwrap_or(rest.len());
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            let table = windows.entry(ws).or_default();
            hashes.clear();
            hashes.extend(run.iter().map(|e| hash_key(*seed, e.key.as_bytes())));
            slots.clear();
            slots.extend(hashes.iter().map(|&hash| table.guess(hash)));
            for ((entry, slot), &hash) in run.iter_mut().zip(slots.iter_mut()).zip(&*hashes) {
                let key = entry.key.as_bytes();
                if *slot != u32::MAX && table.key(*slot as usize) == key {
                    continue;
                }
                let (found, created) = table.slot_of(hash, key, n_aggs);
                *slot = found as u32;
                if created {
                    // Adopted as shipped; a short entry is padded so the
                    // arena keeps its stride. Taking the states leaves
                    // nothing to merge below.
                    let mut incoming = std::mem::take(&mut entry.states).into_iter();
                    table.states.extend(
                        aggs.iter()
                            .map(|spec| incoming.next().unwrap_or_else(|| spec.init())),
                    );
                }
            }
            for (entry, &slot) in run.iter().zip(slots.iter()) {
                let slot = slot as usize;
                table.mark_changed(slot);
                let states = &mut table.states[slot * n_aggs..][..n_aggs];
                for (state, inc) in states.iter_mut().zip(&entry.states) {
                    state.merge(inc);
                }
            }
        }
    }

    fn reset(&mut self) {
        self.windows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;
    use crate::record::Record;
    use crate::time::secs;
    use crate::value::Value;

    fn input_schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("src", DataType::U32),
            Field::new("dst", DataType::U32),
            Field::new("rtt", DataType::U32),
        ])
    }

    fn rtt_aggs() -> Vec<AggSpec> {
        vec![
            AggSpec::new(AggKind::Avg, 2, "avg_rtt"),
            AggSpec::new(AggKind::Max, 2, "max_rtt"),
            AggSpec::new(AggKind::Min, 2, "min_rtt"),
        ]
    }

    fn op(role: AggRole, emit: EmitMode) -> GroupAggregateOp {
        GroupAggregateOp::new(
            vec![0, 1],
            rtt_aggs(),
            &input_schema(),
            TumblingWindow::new(secs(10.0)),
            emit,
            role,
            CostModel::fixed(20.0),
        )
    }

    fn rec(ts_s: f64, src: u64, dst: u64, rtt: u64) -> Record {
        Record::new(
            secs(ts_s),
            vec![Value::U64(src), Value::U64(dst), Value::U64(rtt)],
        )
    }

    fn feed(g: &mut GroupAggregateOp, recs: &[Record]) {
        let batch = Batch::from_records(input_schema(), recs).unwrap();
        let mut sink = Vec::new();
        g.process_batch(batch, &mut sink);
        assert!(sink.is_empty(), "aggregation emits only on watermark/epoch");
    }

    fn rows(out: &[Batch]) -> Vec<Record> {
        out.iter().flat_map(Batch::to_records).collect()
    }

    #[test]
    fn final_role_emits_on_window_close() {
        let mut g = op(AggRole::Final, EmitMode::OnWindowClose);
        feed(
            &mut g,
            &[rec(1.0, 1, 2, 100), rec(2.0, 1, 2, 300), rec(3.0, 9, 9, 50)],
        );
        let mut out = Vec::new();
        g.on_watermark(secs(9.0), &mut out);
        assert!(rows(&out).is_empty(), "window not closed yet");
        g.on_watermark(secs(10.0), &mut out);
        let emitted = rows(&out);
        assert_eq!(emitted.len(), 2);
        // Insertion-ordered emission: group (1,2) first.
        assert_eq!(emitted[0].values[1], Value::U64(1));
        assert_eq!(emitted[0].values[3], Value::F64(200.0)); // avg
        assert_eq!(emitted[0].values[4], Value::F64(300.0)); // max
        assert_eq!(emitted[0].values[5], Value::F64(100.0)); // min
        assert_eq!(emitted[0].ts, secs(10.0));
        assert_eq!(g.group_count(), 0);
    }

    #[test]
    fn per_epoch_delta_emits_only_changed_groups() {
        let mut g = op(AggRole::Final, EmitMode::PerEpochDelta);
        feed(&mut g, &[rec(1.0, 1, 2, 100)]);
        let mut out = Vec::new();
        g.on_epoch(&mut out);
        assert_eq!(rows(&out).len(), 1);
        out.clear();
        g.on_epoch(&mut out);
        assert!(rows(&out).is_empty(), "no change since last epoch");
        feed(&mut g, &[rec(2.0, 1, 2, 900)]);
        g.on_epoch(&mut out);
        let emitted = rows(&out);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].values[4], Value::F64(900.0));
    }

    #[test]
    fn partial_role_ships_state_and_merge_is_exact() {
        // Split a stream arbitrarily between a partial-role source op and a
        // final-role SP op; merged results must equal unpartitioned results.
        let records = [
            rec(1.0, 1, 2, 100),
            rec(2.0, 1, 2, 300),
            rec(3.0, 1, 2, 50),
            rec(4.0, 7, 8, 400),
            rec(5.0, 1, 2, 250),
        ];

        // Reference: all records through one final op.
        let mut reference = op(AggRole::Final, EmitMode::OnWindowClose);
        feed(&mut reference, &records);
        let mut ref_out = Vec::new();
        reference.on_watermark(secs(10.0), &mut ref_out);

        // Partitioned: records 0,2,4 locally; 1,3 drained to SP.
        let mut local = op(AggRole::Partial, EmitMode::OnWindowClose);
        let mut sp = op(AggRole::Final, EmitMode::OnWindowClose);
        let local_recs: Vec<Record> = records.iter().step_by(2).cloned().collect();
        let sp_recs: Vec<Record> = records.iter().skip(1).step_by(2).cloned().collect();
        feed(&mut local, &local_recs);
        feed(&mut sp, &sp_recs);
        let delta = local.take_state_delta().expect("partial state");
        assert!(delta.wire_bytes() > 0);
        sp.merge_state(delta);
        let mut sp_out = Vec::new();
        sp.on_watermark(secs(10.0), &mut sp_out);

        // Compare as sets (emission order differs by arrival order).
        let mut ref_rows = rows(&ref_out);
        let mut sp_rows = rows(&sp_out);
        let key = |r: &Record| format!("{:?}", (r.values[1].clone(), r.values[2].clone()));
        ref_rows.sort_by_key(key);
        sp_rows.sort_by_key(key);
        assert_eq!(ref_rows, sp_rows);
        assert!(local.take_state_delta().is_none(), "state already drained");
    }

    #[test]
    fn partial_role_emits_nothing_on_close() {
        let mut g = op(AggRole::Partial, EmitMode::OnWindowClose);
        feed(&mut g, &[rec(1.0, 1, 2, 100)]);
        let mut out = Vec::new();
        g.on_watermark(secs(20.0), &mut out);
        assert!(out.is_empty());
        // Closed state still retrievable for shipping.
        let delta = g.take_state_delta().unwrap();
        assert_eq!(delta.entry_count(), 1);
    }

    #[test]
    fn dict_keys_group_correctly_across_many_windows() {
        // A batch spanning many windows is split by window before folding;
        // every row must land in its own window's group.
        use crate::batch::{Batch, StrDict};
        use std::sync::Arc;

        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::U32),
        ]);
        let windows = 20usize;
        let per_window = 3usize;
        let n = windows * per_window;
        let timestamps: Vec<Ts> = (0..n)
            .map(|i| (i / per_window) as Ts * secs(10.0) + 1)
            .collect();
        let codes: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let batch = Batch {
            schema: schema.clone(),
            timestamps,
            columns: vec![
                Column::Dict {
                    codes,
                    dict: Arc::new(StrDict::from_entries(["a", "b"])),
                },
                Column::U64(vec![1; n]),
            ],
        };
        let mut g = GroupAggregateOp::new(
            vec![0],
            vec![AggSpec::new(AggKind::Count, 1, "n")],
            &schema,
            TumblingWindow::new(secs(10.0)),
            EmitMode::OnWindowClose,
            AggRole::Final,
            CostModel::fixed(1.0),
        );
        let mut sink = Vec::new();
        g.process_batch(batch, &mut sink);
        // Two keys per window, every window distinct.
        assert_eq!(g.group_count(), windows * 2);
        let mut out = Vec::new();
        g.on_watermark(Ts::MAX, &mut out);
        let rows = rows(&out);
        assert_eq!(rows.len(), windows * 2);
        let total: u64 = rows
            .iter()
            .map(|r| match r.values[2] {
                Value::U64(c) => c,
                _ => 0,
            })
            .sum();
        assert_eq!(total as usize, n, "every row must be counted exactly once");
    }

    #[test]
    fn dict_and_plain_string_keys_group_alike() {
        // A (dict, small-int) key pair — the LogAnalytics (tenant, stat
        // bucket) shape — encodes through per-code fragments and must
        // produce exactly the groups the same rows as plain strings do.
        use crate::batch::{Batch, StrDict};
        use std::sync::Arc;

        let schema = Schema::new(vec![
            Field::new("tenant", DataType::Str),
            Field::new("bucket", DataType::I64),
            Field::new("v", DataType::U32),
        ]);
        let n = 600usize;
        let codes: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let buckets: Vec<i64> = (0..n).map(|i| 100 + (i % 5) as i64).collect();
        let dict_batch = Batch {
            schema: schema.clone(),
            timestamps: vec![1; n],
            columns: vec![
                Column::Dict {
                    codes,
                    dict: Arc::new(StrDict::from_entries(["t0", "t1", "t2"])),
                },
                Column::I64(buckets.clone()),
                Column::U64(vec![1; n]),
            ],
        };
        let mk = || {
            GroupAggregateOp::new(
                vec![0, 1],
                vec![AggSpec::new(AggKind::Count, 2, "n")],
                &schema,
                TumblingWindow::new(secs(10.0)),
                EmitMode::OnWindowClose,
                AggRole::Final,
                CostModel::fixed(1.0),
            )
        };
        // Batch-local dictionary page.
        let mut fast = mk();
        let mut sink = Vec::new();
        fast.process_batch(dict_batch.clone(), &mut sink);
        // The same rows with the dict decoded to plain strings.
        let mut plain_batch = dict_batch;
        plain_batch.dict_decode();
        let mut slow = mk();
        slow.process_batch(plain_batch, &mut sink);
        assert_eq!(fast.group_count(), 15);
        assert_eq!(slow.group_count(), 15);
        let mut a = Vec::new();
        fast.on_watermark(Ts::MAX, &mut a);
        let mut b = Vec::new();
        slow.on_watermark(Ts::MAX, &mut b);
        let sort = |out: &[Batch]| {
            let mut r = rows(out);
            r.sort_by_key(|rec| format!("{rec:?}"));
            r
        };
        assert_eq!(sort(&a), sort(&b));
    }

    #[test]
    fn extreme_int_keys_group_exactly() {
        // Integer keys at both ends of the range (the fixed-pitch key
        // encoder's shape) must land in their own groups.
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::new("v", DataType::U32),
        ]);
        let recs: Vec<Record> = [i64::MIN, -1, 0, 1, i64::MAX, 0]
            .iter()
            .enumerate()
            .map(|(i, &k)| Record::new(i as i64, vec![Value::I64(k), Value::U64(1)]))
            .collect();
        let batch = Batch::from_records(schema.clone(), &recs).unwrap();
        let mut g = GroupAggregateOp::new(
            vec![0],
            vec![AggSpec::new(AggKind::Count, 1, "n")],
            &schema,
            TumblingWindow::new(secs(10.0)),
            EmitMode::OnWindowClose,
            AggRole::Final,
            CostModel::fixed(1.0),
        );
        let mut sink = Vec::new();
        g.process_batch(batch, &mut sink);
        assert_eq!(g.group_count(), 5);
    }

    #[test]
    fn persistent_dict_keys_group_exactly_across_batches_and_epochs() {
        // Persistent dictionary keys encode through per-code fragments the
        // operator keeps across batches, extended as the dictionary grows.
        // Grouping must stay exact across dictionary growth, a watermark
        // that closes nothing, and window close, versus the same rows as
        // plain strings.
        use crate::batch::{Batch, StreamDict};
        use std::sync::Arc;

        let schema = Schema::new(vec![
            Field::new("tenant", DataType::Str),
            Field::new("v", DataType::U32),
        ]);
        let mut stream = StreamDict::new();
        for t in ["tenant-a", "tenant-b", "tenant-c"] {
            stream.intern(t);
        }
        let mk_batch = |dict: Arc<StrDict>, ts: Ts, codes: Vec<u32>| {
            let n = codes.len();
            Batch {
                schema: schema.clone(),
                timestamps: vec![ts; n],
                columns: vec![Column::Dict { codes, dict }, Column::U64(vec![1; n])],
            }
        };
        let mk_op = || {
            GroupAggregateOp::new(
                vec![0],
                vec![AggSpec::new(AggKind::Count, 1, "n")],
                &schema,
                TumblingWindow::new(secs(10.0)),
                EmitMode::OnWindowClose,
                AggRole::Final,
                CostModel::fixed(1.0),
            )
        };
        let mut fast = mk_op();
        let mut slow = mk_op();
        let mut sink = Vec::new();
        let feed_both = |fast: &mut GroupAggregateOp,
                         slow: &mut GroupAggregateOp,
                         sink: &mut Vec<Batch>,
                         b: Batch| {
            let mut plain = b.clone();
            plain.dict_decode();
            fast.process_batch(b, sink);
            slow.process_batch(plain, sink);
        };
        let id = stream.id();
        let frags = |g: &GroupAggregateOp| g.frag_cache[&id].len();

        let snap = stream.snapshot();
        feed_both(
            &mut fast,
            &mut slow,
            &mut sink,
            mk_batch(snap.clone(), 1, vec![0, 1, 2, 0, 1, 2]),
        );
        assert_eq!(frags(&fast), 3, "one fragment per dictionary entry");
        // Second batch, same window, same snapshot: the fragments carry over.
        feed_both(
            &mut fast,
            &mut slow,
            &mut sink,
            mk_batch(snap.clone(), 2, vec![2, 1, 0]),
        );
        assert_eq!(fast.group_count(), 3);
        assert_eq!(fast.frag_cache.len(), 1);

        // Dictionary growth extends the fragments, and the new code lands in
        // its own group.
        stream.intern("tenant-d");
        let grown = stream.snapshot();
        feed_both(
            &mut fast,
            &mut slow,
            &mut sink,
            mk_batch(grown.clone(), 3, vec![3, 0, 3]),
        );
        assert_eq!(fast.group_count(), 4);
        assert_eq!(frags(&fast), 4, "extended, not rebuilt");
        // An older snapshot still resolves through the extended fragments.
        feed_both(&mut fast, &mut slow, &mut sink, mk_batch(snap, 4, vec![1]));
        assert_eq!(fast.group_count(), 4);

        // A second window.
        feed_both(
            &mut fast,
            &mut slow,
            &mut sink,
            mk_batch(grown.clone(), secs(10.0) + 1, vec![0, 1]),
        );
        assert_eq!(fast.open_windows(), 2);

        // A watermark that closes nothing touches no table.
        let mut fast_out = Vec::new();
        let mut slow_out = Vec::new();
        fast.on_watermark(secs(9.0), &mut fast_out);
        assert!(fast_out.is_empty());
        assert_eq!(fast.group_count(), 6);

        // Closing the first window takes its table; the second stays.
        fast.on_watermark(secs(10.0), &mut fast_out);
        slow.on_watermark(secs(10.0), &mut slow_out);
        assert_eq!(fast.group_count(), 2);
        assert_eq!(fast.open_windows(), 1);

        // Post-close batches resolve in the surviving window, exactly.
        feed_both(
            &mut fast,
            &mut slow,
            &mut sink,
            mk_batch(grown, secs(10.0) + 2, vec![1, 2, 3]),
        );
        assert_eq!(fast.group_count(), 4);
        fast.on_watermark(Ts::MAX, &mut fast_out);
        slow.on_watermark(Ts::MAX, &mut slow_out);
        let sort = |out: &[Batch]| {
            let mut r = rows(out);
            r.sort_by_key(|rec| format!("{rec:?}"));
            r
        };
        assert_eq!(
            sort(&fast_out),
            sort(&slow_out),
            "persistent-code grouping must equal plain-string grouping"
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn batch_local_dicts_keep_no_fragments() {
        use crate::batch::{Batch, StrDict};
        use std::sync::Arc;

        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::U32),
        ]);
        let batch = Batch {
            schema: schema.clone(),
            timestamps: vec![1, 2],
            columns: vec![
                Column::Dict {
                    codes: vec![0, 1],
                    dict: Arc::new(StrDict::from_entries(["a", "b"])),
                },
                Column::U64(vec![1, 1]),
            ],
        };
        let mut g = GroupAggregateOp::new(
            vec![0],
            vec![AggSpec::new(AggKind::Count, 1, "n")],
            &schema,
            TumblingWindow::new(secs(10.0)),
            EmitMode::OnWindowClose,
            AggRole::Final,
            CostModel::fixed(1.0),
        );
        let mut sink = Vec::new();
        g.process_batch(batch, &mut sink);
        assert_eq!(g.group_count(), 2);
        assert!(
            g.frag_cache.is_empty(),
            "id-0 dict pages are batch-local: codes are not stable identity"
        );
    }

    #[test]
    fn cost_grows_with_group_count() {
        let mut g = GroupAggregateOp::new(
            vec![0, 1],
            rtt_aggs(),
            &input_schema(),
            TumblingWindow::new(secs(10.0)),
            EmitMode::OnWindowClose,
            AggRole::Final,
            CostModel::state_dependent(20.0, 0.2, 1000.0),
        );
        let c0 = g.cost_us();
        let recs: Vec<Record> = (0..5000).map(|i| rec(1.0, i, i, 10)).collect();
        feed(&mut g, &recs);
        assert!(g.cost_us() > c0);
    }

    #[test]
    fn count_aggregate_schema_is_u64() {
        let schema = GroupAggregateOp::output_schema_for(
            &[0],
            &[AggSpec::new(AggKind::Count, 0, "n")],
            &input_schema(),
        );
        assert_eq!(schema.fields()[2].dtype, DataType::U64);
        assert_eq!(schema.fields()[0].name, "window_start");
    }

    #[test]
    fn string_keys_group_without_collisions() {
        // The byte-encoded index must be injective: ("ab","c") != ("a","bc").
        let schema = Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Str),
            Field::new("v", DataType::U32),
        ]);
        let mut g = GroupAggregateOp::new(
            vec![0, 1],
            vec![AggSpec::new(AggKind::Count, 2, "n")],
            &schema,
            TumblingWindow::new(secs(10.0)),
            EmitMode::OnWindowClose,
            AggRole::Final,
            CostModel::fixed(1.0),
        );
        let recs = vec![
            Record::new(0, vec![Value::str("ab"), Value::str("c"), Value::U64(1)]),
            Record::new(1, vec![Value::str("a"), Value::str("bc"), Value::U64(1)]),
            Record::new(2, vec![Value::str("ab"), Value::str("c"), Value::U64(1)]),
        ];
        let batch = Batch::from_records(schema, &recs).unwrap();
        let mut sink = Vec::new();
        g.process_batch(batch, &mut sink);
        assert_eq!(g.group_count(), 2);
    }

    #[test]
    fn empty_tables_own_nothing_and_tables_stay_small() {
        assert_eq!(WindowTable::default().state_bytes(), 0);
        let mut g = op(AggRole::Final, EmitMode::OnWindowClose);
        assert_eq!(g.state_bytes(), 0);
        // A handful of groups — the t2t fan-in shape, thousands of such
        // operators — must not pay for an index sized for thousands.
        feed(
            &mut g,
            &[rec(1.0, 1, 2, 100), rec(2.0, 3, 4, 300), rec(3.0, 9, 9, 50)],
        );
        assert_eq!(g.group_count(), 3);
        assert!(g.state_bytes() <= 512, "{} B for 3 groups", g.state_bytes());
        // The s2s shape: 5 000 groups of two 64-bit keys and three states.
        let mut g = op(AggRole::Final, EmitMode::OnWindowClose);
        let recs: Vec<Record> = (0..5000).map(|i| rec(1.0, 7, i * 257, 10)).collect();
        feed(&mut g, &recs);
        assert_eq!(g.group_count(), 5000);
        let per_group = g.state_bytes() / 5000;
        assert!(per_group <= 128, "{per_group} B/group at 5000 groups");
        let mut out = Vec::new();
        g.on_watermark(Ts::MAX, &mut out);
        assert_eq!(g.state_bytes(), 0, "closing a window frees its table");
    }

    #[test]
    fn colliding_hashes_and_growth_keep_every_group() {
        // Every key under one hash: the index degenerates to one probe
        // path, which several rehashes must carry over intact, and only the
        // key bytes tell groups apart. Key lengths vary, so the arena also
        // leaves its fixed stride on the way.
        const HASH: u64 = 0xDEAD_BEEF_0BAD_F00D;
        let key = |i: usize| {
            let mut k = (i as u64).to_le_bytes().to_vec();
            k.extend(std::iter::repeat_n(0xAB, i % 5));
            k
        };
        let mut table = WindowTable::default();
        for i in 0..1000 {
            assert_eq!(table.slot_of(HASH, &key(i), 0), (i, true));
            // A guess reads the index only: some group with this tag.
            assert!((table.guess(HASH) as usize) <= i);
        }
        assert!(table.index.len() >= 1024, "grew across several rehashes");
        for i in (0..1000).rev() {
            assert_eq!(table.slot_of(HASH, &key(i), 0), (i, false));
            assert_eq!(table.key(i), key(i));
        }
        assert_eq!(table.len, 1000);
        assert_eq!(table.guess(!HASH), u32::MAX);
    }

    #[test]
    fn keys_of_one_ring_shard_spread_over_the_whole_index() {
        // A shard's table only ever sees keys that agree on the routing
        // hash modulo the shard count. Indexed by that hash they would
        // crowd a quarter of the home positions; the index hash must not
        // care.
        use crate::shard::shard_of_values;
        let mut g = op(AggRole::Final, EmitMode::OnWindowClose);
        g.seed = 17;
        let recs: Vec<Record> = (0..40_000u64)
            .filter(|&i| {
                shard_of_values(
                    &GroupKey::from_values(&[Value::U64(7), Value::U64(i * 257)]),
                    4,
                ) == 0
            })
            .take(5000)
            .map(|i| rec(1.0, 7, i * 257, 10))
            .collect();
        assert_eq!(recs.len(), 5000);
        feed(&mut g, &recs);
        let table = g.windows.values().next().expect("one window");
        let mask = table.index.len() - 1;
        let paths: Vec<usize> = table
            .index
            .iter()
            .enumerate()
            .filter(|(_, &word)| word != EMPTY)
            .map(|(pos, &word)| pos.wrapping_sub((word >> 32) as usize) & mask)
            .collect();
        assert_eq!(paths.len(), 5000);
        let mean = paths.iter().sum::<usize>() as f64 / paths.len() as f64;
        let longest = paths.iter().max().copied().unwrap_or(0);
        // Uniform hashing at this load walks under one slot past home on
        // average; a quarter of the home positions would walk hundreds.
        assert!(mean < 2.0, "mean probe path {mean:.2}");
        assert!(longest < 128, "longest probe path {longest}");
    }

    #[test]
    fn fixed_pitch_and_row_wise_key_encoders_agree() {
        let cols = [
            Column::I64(vec![i64::MIN, -1, 7]),
            Column::U64(vec![0, u64::MAX, 7]),
            Column::F64(vec![-0.0, f64::NAN, 7.5]),
        ];
        let encs: Vec<KeyEnc> = cols.iter().map(KeyEnc::Generic).collect();
        let (mut fast, mut bounds) = (Vec::new(), Vec::new());
        encode_keys(&encs, 3, &mut fast, &mut bounds);
        assert_eq!(bounds.len(), 4);
        let mut slow = Vec::new();
        for (row, &end) in bounds[1..].iter().enumerate() {
            for col in &cols {
                encode_col_value(&mut slow, col, row);
            }
            assert_eq!(end, slow.len());
        }
        assert_eq!(fast, slow);
    }
}
