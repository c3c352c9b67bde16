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
//! Within a table, groups are kept in insertion order (vector + hash index)
//! and tables are visited in window order, so emission is deterministic — a
//! requirement for reproducible experiments. The hash index keys off a
//! canonical *byte encoding* of the key columns built directly from column
//! slices, so the batch hot path materializes a `Value` key only once per
//! distinct group, and aggregate updates read numeric columns natively
//! ([`AggState::update_f64`]).

use std::collections::{BTreeMap, HashMap};

use crate::agg::{AggKind, AggSpec, AggState};
use crate::batch::{Batch, BatchBuilder, Column, StrDict};
use crate::ops::{CostModel, GroupPartialEntry, OpKind, Operator, StatePartial};
use crate::schema::{DataType, Field, Schema, SchemaRef};
use crate::time::Ts;
use crate::value::Value;
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

// The canonical key encoding lives in `crate::shard`: the shard router and
// the group-table index hash the same bytes, which is what lets a sharded
// runtime route rows and shipped `StatePartial` entries to the shard owning
// their group key.
use crate::shard::{encode_col_value, encode_value};

/// One group: key values, one state per aggregate, and whether the group
/// changed since the last per-epoch delta emission.
type Entry = (Vec<Value>, Vec<AggState>, bool);

/// The groups of **one window**, in insertion order (deterministic
/// emission) with O(1) lookup via the canonical encoding of the key
/// columns. A window's whole state — index, entries, dense combo cache —
/// lives and dies with its table: closing the window is taking the table
/// out of the operator, which touches no other window.
#[derive(Default)]
struct WindowTable {
    index: HashMap<Box<[u8]>, u32>,
    entries: Vec<Entry>,
    /// Dense `combined code → slot` cache (`u32::MAX` = empty) over this
    /// window's groups; empty when none was built. See
    /// [`GroupAggregateOp::fold_window`] for when it is valid.
    combo: Vec<u32>,
    /// `(dict id, cardinality)` per key column `combo` was built under.
    combo_sig: Vec<(u64, usize)>,
}

impl WindowTable {
    /// Looks up the group slot for an already-encoded key, creating it (via
    /// `make_key` + `init`) on first sight and marking it changed either
    /// way. The key bytes are copied into an owned index entry exactly once,
    /// on first insert.
    fn upsert_slot(
        &mut self,
        encoded: &[u8],
        make_key: impl FnOnce() -> Vec<Value>,
        init: impl FnOnce() -> Vec<AggState>,
    ) -> u32 {
        match self.index.get(encoded) {
            Some(&i) => {
                self.entries[i as usize].2 = true;
                i
            }
            None => {
                let i = self.entries.len() as u32;
                self.entries.push((make_key(), init(), true));
                self.index.insert(Box::from(encoded), i);
                i
            }
        }
    }

    /// Merges `incoming` into an existing entry, or adopts it as a new
    /// entry. `scratch` is the caller's reusable key-encode buffer.
    fn insert_or_merge(&mut self, scratch: &mut Vec<u8>, key: Vec<Value>, incoming: Vec<AggState>) {
        scratch.clear();
        for v in &key {
            encode_value(scratch, v);
        }
        match self.index.get(scratch.as_slice()) {
            Some(&i) => {
                let entry = &mut self.entries[i as usize];
                entry.2 = true;
                for (s, inc) in entry.1.iter_mut().zip(&incoming) {
                    s.merge(inc);
                }
            }
            None => {
                let i = self.entries.len() as u32;
                self.index.insert(Box::from(scratch.as_slice()), i);
                self.entries.push((key, incoming, true));
            }
        }
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
    /// Scratch buffer for key encoding (reused across rows).
    scratch: Vec<u8>,
    /// Per-batch row → group-slot resolution (reused across batches).
    slots: Vec<u32>,
    /// Canonical fragments per persistent dict id, extended append-only.
    frag_cache: HashMap<u64, KeyFrags>,
    /// Batch-local dense combo cache (reused across batches) for key sets
    /// whose codes are not stable identity.
    local_combo: Vec<u32>,
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
            scratch: Vec::with_capacity(64),
            slots: Vec::new(),
            frag_cache: HashMap::new(),
            local_combo: Vec::new(),
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
        self.windows.values().map(|t| t.entries.len()).sum()
    }

    /// Windows currently holding state.
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// This instance's role.
    pub fn role(&self) -> AggRole {
        self.role
    }

    /// Number of windows holding a cross-batch combo cache (test
    /// observability).
    #[cfg(test)]
    fn cached_combo_windows(&self) -> usize {
        self.windows
            .values()
            .filter(|t| !t.combo.is_empty())
            .count()
    }

    /// Builds one result batch from finalised group rows (none for an empty
    /// row set).
    fn emit_batch<'a>(&self, rows: impl Iterator<Item = (Ts, &'a Entry)>, out: &mut Vec<Batch>) {
        let mut builder = BatchBuilder::new(self.out_schema.clone(), rows.size_hint().0);
        let mut values: Vec<Value> = Vec::with_capacity(self.out_schema.width());
        for (window_start, (key, states, _)) in rows {
            values.clear();
            values.push(Value::I64(window_start));
            values.extend(key.iter().cloned());
            values.extend(states.iter().map(AggState::finalize));
            // Result timestamp is the window end, the event-time point at
            // which the result is complete.
            builder
                .push_row(window_start + self.window.size, &values)
                .expect("result rows match the output schema");
        }
        if !builder.is_empty() {
            out.push(builder.finish());
        }
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

/// When every key column is dense and *code-able* — a dictionary (codes are
/// page indexes) or an integer column whose batch-local value range is
/// bounded (codes are offsets from the batch minimum) — and the combined
/// key space is at most this many slots, rows resolve through a dense
/// per-window `(combined code) → slot` cache instead of hashing byte keys.
const MAX_COMBO_CACHE: usize = 1 << 16;

/// One dimension of the dense combined code: yields a per-row code in
/// `0..card`. The code is a cache key only — on a cache miss the canonical
/// byte encoding (via [`KeyEnc`]) still decides group identity, so the
/// cache can never conflate distinct keys.
enum ComboDim<'a> {
    /// Dictionary column: the code is the page index.
    Dict {
        /// Per-row dictionary codes.
        codes: &'a [u32],
        /// Page entry count (≥ 1 so empty pages keep the product sane).
        card: usize,
    },
    /// Bounded-range signed integers: the code is `value - lo`.
    I64 {
        /// Per-row values.
        vals: &'a [i64],
        /// Batch-local minimum.
        lo: i64,
        /// `hi - lo + 1`.
        card: usize,
    },
    /// Bounded-range unsigned integers: the code is `value - lo`.
    U64 {
        /// Per-row values.
        vals: &'a [u64],
        /// Batch-local minimum.
        lo: u64,
        /// `hi - lo + 1`.
        card: usize,
    },
}

impl ComboDim<'_> {
    fn card(&self) -> usize {
        match self {
            ComboDim::Dict { card, .. }
            | ComboDim::I64 { card, .. }
            | ComboDim::U64 { card, .. } => *card,
        }
    }

    #[inline]
    fn code(&self, row: usize) -> usize {
        match self {
            ComboDim::Dict { codes, .. } => codes[row] as usize,
            ComboDim::I64 { vals, lo, .. } => (vals[row] - lo) as usize,
            ComboDim::U64 { vals, lo, .. } => (vals[row] - lo) as usize,
        }
    }
}

/// Builds the combined-code dimensions when every key column qualifies and
/// the combined cardinality stays within [`MAX_COMBO_CACHE`]. Integer
/// columns qualify by a bounded batch-local value range (the LogAnalytics
/// `stat` bucket is a handful of small integers); anything else — floats,
/// plain strings, nullable columns — falls back to byte hashing.
fn combo_dims<'a>(key_cols: &[&'a Column]) -> Option<Vec<ComboDim<'a>>> {
    if key_cols.is_empty() {
        return None;
    }
    let mut dims = Vec::with_capacity(key_cols.len());
    let mut product = 1usize;
    for col in key_cols {
        let dim = match col {
            Column::Dict { codes, dict } => ComboDim::Dict {
                codes,
                card: dict.len().max(1),
            },
            Column::I64(vals) => {
                let (lo, hi) = (vals.iter().min()?, vals.iter().max()?);
                let span = (*hi as i128 - *lo as i128) as u128;
                if span >= MAX_COMBO_CACHE as u128 {
                    return None;
                }
                ComboDim::I64 {
                    vals,
                    lo: *lo,
                    card: span as usize + 1,
                }
            }
            Column::U64(vals) => {
                let (lo, hi) = (vals.iter().min()?, vals.iter().max()?);
                let span = (hi - lo) as u128;
                if span >= MAX_COMBO_CACHE as u128 {
                    return None;
                }
                ComboDim::U64 {
                    vals,
                    lo: *lo,
                    card: (hi - lo) as usize + 1,
                }
            }
            _ => return None,
        };
        product = product.checked_mul(dim.card())?;
        if product > MAX_COMBO_CACHE {
            return None;
        }
        dims.push(dim);
    }
    Some(dims)
}

/// At most this many open windows hold a cross-batch combo cache; rows of
/// further windows resolve through the byte-keyed index (bounds memory when
/// a stream that never sees a watermark keeps many windows open).
const MAX_WINDOW_CACHES: usize = 8;

/// Keeps per-operator [`KeyFrags`] caches bounded: an operator normally sees
/// one persistent dictionary per key column, so hitting this means dict ids
/// are churning (e.g. streams being recreated) and caching stopped paying.
const MAX_FRAG_CACHE: usize = 1024;

/// Borrowed numeric view of an aggregate input column, hoisted out of the
/// row loop so fold kernels run over contiguous slices.
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

/// Runs `f(slot, value)` for every row whose input value is numeric and
/// valid, one tight loop per storage class.
#[inline]
fn for_each_value(input: &AggInput, slots: &[u32], mut f: impl FnMut(usize, f64)) {
    macro_rules! run {
        ($v:expr, $conv:expr) => {{
            match input.valid {
                Some(va) => {
                    for (i, &slot) in slots.iter().enumerate() {
                        if va[i] {
                            f(slot as usize, $conv($v[i]));
                        }
                    }
                }
                None => {
                    for (i, &slot) in slots.iter().enumerate() {
                        f(slot as usize, $conv($v[i]));
                    }
                }
            }
        }};
    }
    match input.view {
        NumView::F64(v) => run!(v, |x: f64| x),
        NumView::I64(v) => run!(v, |x: i64| x as f64),
        NumView::U64(v) => run!(v, |x: u64| x as f64),
        NumView::Bool(v) => run!(v, |x: bool| if x { 1.0 } else { 0.0 }),
        NumView::None => {}
    }
}

/// Folds one batch of resolved rows into the group states, one aggregate
/// column at a time. Semantics match the scalar path exactly: `Count`
/// counts every record; the other aggregates ignore non-numeric and `Null`
/// values.
fn fold_aggregates(
    entries: &mut [Entry],
    slots: &[u32],
    aggs: &[AggSpec],
    agg_cols: &[Option<&Column>],
) {
    for (j, spec) in aggs.iter().enumerate() {
        match spec.kind {
            AggKind::Count => {
                for &slot in slots {
                    if let AggState::Count(c) = &mut entries[slot as usize].1[j] {
                        *c += 1;
                    }
                }
            }
            AggKind::Sum => {
                for_each_value(&agg_input(agg_cols[j]), slots, |slot, v| {
                    if let AggState::Sum(s) = &mut entries[slot].1[j] {
                        *s += v;
                    }
                });
            }
            AggKind::Min => {
                for_each_value(&agg_input(agg_cols[j]), slots, |slot, v| {
                    if let AggState::Min(m) = &mut entries[slot].1[j] {
                        if v < *m {
                            *m = v;
                        }
                    }
                });
            }
            AggKind::Max => {
                for_each_value(&agg_input(agg_cols[j]), slots, |slot, v| {
                    if let AggState::Max(m) = &mut entries[slot].1[j] {
                        if v > *m {
                            *m = v;
                        }
                    }
                });
            }
            AggKind::Avg => {
                for_each_value(&agg_input(agg_cols[j]), slots, |slot, v| {
                    if let AggState::Avg { sum, count } = &mut entries[slot].1[j] {
                        *sum += v;
                        *count += 1;
                    }
                });
            }
            AggKind::ApproxQuantile { .. } => {
                for_each_value(&agg_input(agg_cols[j]), slots, |slot, v| {
                    entries[slot].1[j].update_f64(v);
                });
            }
        }
    }
}

impl GroupAggregateOp {
    /// Folds a batch whose rows all belong to the window starting at `ws`
    /// into that window's table.
    ///
    /// Pass 1 resolves every row to its group slot. When every key column
    /// is dense and code-able with a small combined key space, rows resolve
    /// through a dense `combined code → slot` cache, hashing each distinct
    /// key only once. The cache lives in the window's table — surviving
    /// batches and epochs until the window closes — while every key column
    /// is a *persistent* dictionary (id ≠ 0: codes are stable identity) and
    /// the `(dict id, cardinality)` signature holds; a dictionary that grew
    /// shifts the mixing radix and rebuilds it. Batch-local pages and
    /// bounded-int dimensions use a batch-local cache instead. A miss
    /// always falls back to the canonical byte encoding, so the cache can
    /// never conflate distinct keys. Pass 2 folds each aggregate column
    /// with a contiguous kernel.
    fn fold_window(&mut self, ws: Ts, batch: &Batch) {
        let GroupAggregateOp {
            keys,
            aggs,
            windows,
            scratch,
            slots,
            frag_cache,
            local_combo,
            ..
        } = self;
        // Hoist key/aggregate column bindings out of the row loop; dict key
        // columns additionally need their per-code canonical fragments.
        // Persistent dictionaries (id ≠ 0) keep those in the operator and
        // extend them append-only; batch-local pages rebuild per batch.
        let key_cols: Vec<&Column> = keys.iter().map(|&k| &batch.columns[k]).collect();
        if frag_cache.len() > MAX_FRAG_CACHE {
            frag_cache.clear();
        }
        for col in &key_cols {
            if let Column::Dict { dict, .. } = col {
                if dict.id() != 0 {
                    frag_cache
                        .entry(dict.id())
                        .or_insert_with(KeyFrags::new)
                        .extend_to(dict);
                }
            }
        }
        let local_frags: Vec<KeyFrags> = key_cols
            .iter()
            .filter_map(|c| match c {
                Column::Dict { dict, .. } if dict.id() == 0 => Some(KeyFrags::for_dict(dict)),
                _ => None,
            })
            .collect();
        let mut next_local = local_frags.iter();
        let encs: Vec<KeyEnc> = key_cols
            .iter()
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
        slots.clear();
        slots.reserve(n);

        let cached_windows = windows.values().filter(|t| !t.combo.is_empty()).count();
        let table = windows.entry(ws).or_default();
        let mut resolve = |table: &mut WindowTable, row: usize| {
            scratch.clear();
            for e in &encs {
                e.encode_row(scratch, row);
            }
            table.upsert_slot(
                scratch,
                || key_cols.iter().map(|c| c.value(row)).collect(),
                || aggs.iter().map(AggSpec::init).collect(),
            )
        };
        if let Some(dims) = combo_dims(&key_cols) {
            let card: usize = dims.iter().map(ComboDim::card).product();
            let persist_sig: Option<Vec<(u64, usize)>> = key_cols
                .iter()
                .map(|c| match c {
                    Column::Dict { dict, .. } if dict.id() != 0 => {
                        Some((dict.id(), dict.len().max(1)))
                    }
                    _ => None,
                })
                .collect();
            // Borrow the cache out of its home for the row loop (the table
            // is mutated alongside it) and put it back afterwards.
            let persistent = persist_sig.is_some();
            let mut cache = match persist_sig {
                Some(sig) => {
                    let mut cache = std::mem::take(&mut table.combo);
                    if table.combo_sig != sig {
                        cache.clear();
                        table.combo_sig = sig;
                    }
                    // One more cached window only below the cap; past it
                    // the cache stays empty and every row takes the index.
                    if cache.is_empty() && cached_windows < MAX_WINDOW_CACHES {
                        cache.resize(card, u32::MAX);
                    }
                    cache
                }
                None => {
                    let mut cache = std::mem::take(local_combo);
                    cache.clear();
                    cache.resize(card, u32::MAX);
                    cache
                }
            };
            for row in 0..n {
                let mut code = 0usize;
                let mut mul = 1usize;
                for d in &dims {
                    code += d.code(row) * mul;
                    mul *= d.card();
                }
                let slot = match cache.get(code) {
                    Some(&slot) if slot != u32::MAX => {
                        table.entries[slot as usize].2 = true;
                        slot
                    }
                    _ => {
                        let slot = resolve(table, row);
                        if let Some(cached) = cache.get_mut(code) {
                            *cached = slot;
                        }
                        slot
                    }
                };
                slots.push(slot);
            }
            if persistent {
                table.combo = cache;
            } else {
                *local_combo = cache;
            }
        } else {
            for row in 0..n {
                let slot = resolve(table, row);
                slots.push(slot);
            }
        }

        let agg_cols: Vec<Option<&Column>> = aggs
            .iter()
            .map(|spec| batch.columns.get(spec.col))
            .collect();
        fold_aggregates(&mut table.entries, slots, aggs, &agg_cols);
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
            self.emit_batch(table.entries.iter().map(|e| (ws, e)), out);
        }
    }

    fn on_epoch(&mut self, out: &mut Vec<Batch>) {
        if self.role == AggRole::Final && self.emit == EmitMode::PerEpochDelta {
            let changed = self.windows.iter().flat_map(|(&ws, table)| {
                table.entries.iter().filter(|e| e.2).map(move |e| (ws, e))
            });
            self.emit_batch(changed, out);
            for table in self.windows.values_mut() {
                for entry in &mut table.entries {
                    entry.2 = false;
                }
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
        let mut entries = Vec::with_capacity(self.group_count());
        for (window_start, table) in std::mem::take(&mut self.windows) {
            for (key, states, _) in table.entries {
                entries.push(GroupPartialEntry {
                    window_start,
                    key,
                    states,
                });
            }
        }
        Some(StatePartial::Group(entries))
    }

    fn checkpoint_state(&self) -> Option<StatePartial> {
        if self.windows.is_empty() {
            return None;
        }
        let mut entries = Vec::with_capacity(self.group_count());
        for (&window_start, table) in &self.windows {
            for (key, states, _) in &table.entries {
                entries.push(GroupPartialEntry {
                    window_start,
                    key: key.clone(),
                    states: states.clone(),
                });
            }
        }
        Some(StatePartial::Group(entries))
    }

    fn merge_state(&mut self, state: StatePartial) {
        let StatePartial::Group(entries) = state;
        for entry in entries {
            self.windows
                .entry(entry.window_start)
                .or_default()
                .insert_or_merge(&mut self.scratch, entry.key, entry.states);
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
    fn small_int_keys_take_the_combo_cache_and_stay_exact() {
        // A (dict, small-int) key pair — the LogAnalytics (tenant, stat
        // bucket) shape — must resolve through the dense combined-code
        // cache and produce exactly the groups the byte-hash path would.
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
        // Combo path (dict + bounded int).
        let mut fast = mk();
        let mut sink = Vec::new();
        fast.process_batch(dict_batch.clone(), &mut sink);
        // Byte-hash fallback: same rows with the dict decoded to plain
        // strings (plain Str never enters the combo cache).
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
    fn wide_int_ranges_fall_back_to_byte_hashing() {
        // A batch whose integer key range exceeds the cache cap must still
        // group correctly (through the fallback) — and not allocate a
        // range-sized cache.
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
    fn persistent_dict_keys_cache_slots_across_batches_and_epochs() {
        // When every key column is a persistent dictionary, the dense
        // (window, combined-code) → slot caches must survive across
        // batches — and stay exact across dictionary growth (a signature
        // change rebuilds the window's cache), window close (the closed
        // window's cache goes with its table, the others stay), and versus
        // the byte-hash path on the decoded rows.
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

        let snap = stream.snapshot();
        feed_both(
            &mut fast,
            &mut slow,
            &mut sink,
            mk_batch(snap.clone(), 1, vec![0, 1, 2, 0, 1, 2]),
        );
        assert_eq!(
            fast.cached_combo_windows(),
            1,
            "persistent dict keys must retain the combo cache across batches"
        );
        // Second batch, same window, same snapshot: pure cache hits.
        feed_both(
            &mut fast,
            &mut slow,
            &mut sink,
            mk_batch(snap.clone(), 2, vec![2, 1, 0]),
        );
        assert_eq!(fast.group_count(), 3);

        // Dictionary growth changes the mixing radix: the stale caches must
        // be dropped, and the new code must land in its own group.
        stream.intern("tenant-d");
        let grown = stream.snapshot();
        feed_both(
            &mut fast,
            &mut slow,
            &mut sink,
            mk_batch(grown.clone(), 3, vec![3, 0, 3]),
        );
        assert_eq!(fast.group_count(), 4);
        assert_eq!(
            fast.cached_combo_windows(),
            1,
            "rebuilt under new signature"
        );

        // A second window populates a second cache.
        feed_both(
            &mut fast,
            &mut slow,
            &mut sink,
            mk_batch(grown.clone(), secs(10.0) + 1, vec![0, 1]),
        );
        assert_eq!(fast.cached_combo_windows(), 2);

        // A watermark that closes nothing touches no table and no cache.
        let mut fast_out = Vec::new();
        let mut slow_out = Vec::new();
        fast.on_watermark(secs(9.0), &mut fast_out);
        assert!(fast_out.is_empty());
        assert_eq!(fast.group_count(), 6);
        assert_eq!(fast.cached_combo_windows(), 2);

        // Closing the first window takes its table and its cache with it;
        // the second window's cache stays valid.
        fast.on_watermark(secs(10.0), &mut fast_out);
        slow.on_watermark(secs(10.0), &mut slow_out);
        assert_eq!(fast.group_count(), 2);
        assert_eq!(fast.open_windows(), 1);
        assert_eq!(fast.cached_combo_windows(), 1);

        // Post-close batches resolve through the surviving cache, exactly.
        feed_both(
            &mut fast,
            &mut slow,
            &mut sink,
            mk_batch(grown, secs(10.0) + 2, vec![1, 2, 3]),
        );
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
            "persistent-code grouping must equal byte-hash grouping"
        );
        assert!(sink.is_empty());
    }

    #[test]
    fn batch_local_dicts_do_not_persist_combo_caches() {
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
        assert_eq!(
            g.cached_combo_windows(),
            0,
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
}
