//! Key-hash partitioning — the kernel behind the sharded SP runtime.
//!
//! A keyed shard operator splits one [`Batch`] into `n` disjoint sub-batches
//! by hashing the group-key columns, so independent shard pipelines can
//! process disjoint key ranges in parallel while partitioned aggregation
//! stays exact. Three things must agree on the key → shard mapping:
//!
//! * [`Batch::shard_by_key`] — rows, hashed straight off column storage;
//! * [`shard_of_values`] — [`StatePartial`] group entries, whose keys are
//!   canonical encodings ([`GroupKey`]). It hashes each value's fragment
//!   in the key's own bytes, so routing an entry allocates nothing;
//! * window results — never re-sharded: a group's whole lifetime (updates,
//!   merged partials, close) happens on the shard that owns its key.
//!
//! [`Ring`] is the one place the first two are *called* from routing code:
//! every SP tier (emulated, in-process live, TCP) asks it where a batch or a
//! state delta goes and keeps only its own "mine? apply : ship" step.
//!
//! Agreement is by construction: both paths hash the *canonical key
//! encoding* defined here (variant tag + payload per value), which is also
//! the byte encoding the group table indexes by — a dictionary-encoded
//! string hashes identically to the same string in a plain column. Dict
//! columns take a fast path: the canonical fragment of every dictionary
//! entry is hashed once per page, and rows then combine precomputed code
//! hashes instead of re-hashing string bytes per row.
//!
//! # The hash ring: shards vs nodes
//!
//! Multi-node SP deployments keep the ring of `n_shards` *virtual shards*
//! fixed and divide it into contiguous slices, one per SP node
//! ([`shards_of_node`] / [`node_of_shard`]). The key → shard mapping never
//! depends on the node count, so changing `n_nodes` only moves whole shards
//! (with their state) between nodes — partitioned aggregation stays exact by
//! construction at any node count, and a future join/leave rebalance ships
//! shard state without rehashing a single key.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::batch::{Batch, Column, StrDict};
use crate::ops::{GroupKey, GroupPartialEntry, StatePartial};
use crate::value::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Variant tags of the canonical encoding, one byte ahead of each value's
/// payload.
pub(crate) const NULL_TAG: u8 = 0;
pub(crate) const BOOL_TAG: u8 = 1;
pub(crate) const I64_TAG: u8 = 2;
pub(crate) const U64_TAG: u8 = 3;
pub(crate) const F64_TAG: u8 = 4;
pub(crate) const STR_TAG: u8 = 5;
/// Bytes ahead of a string's payload: the tag and a `u32` length.
pub(crate) const STR_HEADER: usize = 5;

/// Appends the canonical byte encoding of one `Value` (variant tag +
/// payload). Must stay in lockstep with [`encode_col_value`]: the group
/// table's byte index and the shard router both rely on the two producing
/// identical bytes for logically equal values.
pub fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(NULL_TAG),
        Value::Bool(b) => {
            buf.push(BOOL_TAG);
            buf.push(u8::from(*b));
        }
        Value::I64(x) => {
            buf.push(I64_TAG);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::U64(x) => {
            buf.push(U64_TAG);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            buf.push(F64_TAG);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(STR_TAG);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

/// Appends the canonical byte encoding of `col[row]` without materializing a
/// `Value` (strings are borrowed straight from the column buffer).
pub fn encode_col_value(buf: &mut Vec<u8>, col: &Column, row: usize) {
    match col {
        Column::Bool(v) => {
            buf.push(BOOL_TAG);
            buf.push(u8::from(v[row]));
        }
        Column::I64(v) => {
            buf.push(I64_TAG);
            buf.extend_from_slice(&v[row].to_le_bytes());
        }
        Column::U64(v) => {
            buf.push(U64_TAG);
            buf.extend_from_slice(&v[row].to_le_bytes());
        }
        Column::F64(v) => {
            buf.push(F64_TAG);
            buf.extend_from_slice(&v[row].to_bits().to_le_bytes());
        }
        Column::Str { .. } | Column::Dict { .. } => {
            // Dict values encode exactly like the same string in a plain
            // column: group tables and shard routing persist across batches
            // whose dictionaries may differ.
            let s = col.str_at(row).unwrap_or("");
            buf.push(STR_TAG);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Column::Opt { valid, values } => {
            if valid[row] {
                encode_col_value(buf, values, row);
            } else {
                buf.push(NULL_TAG);
            }
        }
    }
}

/// One value read back from its canonical encoding: strings borrow their
/// payload, so a reader that only copies them on (result emission) never
/// allocates a `Value::Str`.
pub enum Decoded<'a> {
    /// A string payload.
    Str(&'a str),
    /// Any other variant, `Null` included.
    Scalar(Value),
}

impl Decoded<'_> {
    /// The owned value.
    pub fn into_value(self) -> Value {
        match self {
            Decoded::Str(s) => Value::str(s),
            Decoded::Scalar(v) => v,
        }
    }
}

/// Byte length of the value whose canonical fragment starts `bytes`. The
/// bytes must be ones [`encode_value`] / [`encode_col_value`] wrote.
#[inline]
pub(crate) fn fragment_len(bytes: &[u8]) -> usize {
    match bytes[0] {
        NULL_TAG => 1,
        BOOL_TAG => 2,
        STR_TAG => {
            let len = bytes[1..STR_HEADER].try_into().expect("4-byte length");
            STR_HEADER + u32::from_le_bytes(len) as usize
        }
        _ => 9,
    }
}

/// Reads one value off the front of a canonical encoding, advancing `bytes`
/// past it — the inverse of [`encode_value`] / [`encode_col_value`], exact
/// down to `F64` bit patterns. The bytes must be ones those two wrote.
pub fn decode_value<'a>(bytes: &mut &'a [u8]) -> Decoded<'a> {
    let (fragment, rest) = bytes.split_at(fragment_len(bytes));
    *bytes = rest;
    let word = || u64::from_le_bytes(fragment[1..].try_into().expect("8-byte payload"));
    Decoded::Scalar(match fragment[0] {
        NULL_TAG => Value::Null,
        BOOL_TAG => Value::Bool(fragment[1] != 0),
        I64_TAG => Value::I64(word() as i64),
        U64_TAG => Value::U64(word()),
        F64_TAG => Value::F64(f64::from_bits(word())),
        _ => {
            let s = std::str::from_utf8(&fragment[STR_HEADER..]);
            debug_assert!(s.is_ok(), "canonical encodings hold UTF-8 strings");
            return Decoded::Str(s.unwrap_or(""));
        }
    })
}

/// FNV-1a over a canonical encoding.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// FNV-1a continued from `h` over `bytes`: hashing a value's fragment in
/// pieces gives the hash of the whole fragment.
#[inline]
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of a string's canonical fragment, hashed in place.
fn hash_str(s: &str) -> u64 {
    let header = fnv1a_from(fnv1a(&[STR_TAG]), &(s.len() as u32).to_le_bytes());
    fnv1a_from(header, s.as_bytes())
}

/// Combines per-column value hashes into one row hash (order-sensitive).
#[inline]
fn combine(h: u64, col_hash: u64) -> u64 {
    (h ^ col_hash).wrapping_mul(FNV_PRIME)
}

thread_local! {
    /// Per-thread code→hash tables for *persistent* dictionaries, keyed by
    /// dict id. Codes never remap, so a table is extended incrementally as
    /// its page grows instead of being rebuilt per batch — the code-native
    /// hashing the persistent-dictionary registry buys.
    static CODE_HASH_CACHE: RefCell<HashMap<u64, Arc<Vec<u64>>>> =
        RefCell::new(HashMap::new());
}

/// Bound on distinct persistent dictionaries cached per thread; a runaway
/// id churn (e.g. tests creating streams in a loop) resets the cache rather
/// than growing without limit.
const MAX_CACHED_DICTS: usize = 1024;

/// Hashes the canonical fragment of every dictionary entry — the hash table
/// the dict fast path indexes by code. Batch-local pages (id 0) compute it
/// per page; persistent pages hit the per-dict incremental cache, hashing
/// only entries appended since the last batch.
fn dict_code_hashes(dict: &StrDict) -> Arc<Vec<u64>> {
    let compute_from = |start: usize, prefix: &[u64]| {
        let mut hashes = Vec::with_capacity(dict.len());
        hashes.extend_from_slice(prefix);
        hashes.extend((start..dict.len()).map(|c| hash_str(dict.get(c as u32))));
        hashes
    };
    if dict.id() == 0 {
        return Arc::new(compute_from(0, &[]));
    }
    CODE_HASH_CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        if cache.len() >= MAX_CACHED_DICTS && !cache.contains_key(&dict.id()) {
            cache.clear();
        }
        let cached = cache
            .entry(dict.id())
            .or_insert_with(|| Arc::new(Vec::new()));
        if cached.len() < dict.len() {
            // Append-only pages: the cached prefix stays valid, only the
            // new tail gets hashed. (A cache longer than this snapshot just
            // means a newer snapshot was seen first — the prefix is shared.)
            *cached = Arc::new(compute_from(cached.len(), cached));
        }
        cached.clone()
    })
}

/// Per-batch hasher for one key column.
enum ColHasher<'a> {
    /// Dense dictionary column: per-code hashes precomputed from the page.
    Dict {
        codes: &'a [u32],
        hashes: Arc<Vec<u64>>,
    },
    /// Any other storage: canonical-encode the value and hash it.
    Generic(&'a Column),
}

impl<'a> ColHasher<'a> {
    fn new(col: &'a Column) -> ColHasher<'a> {
        match col {
            Column::Dict { codes, dict } => ColHasher::Dict {
                codes,
                hashes: dict_code_hashes(dict),
            },
            other => ColHasher::Generic(other),
        }
    }

    #[inline]
    fn hash_row(&self, scratch: &mut Vec<u8>, row: usize) -> u64 {
        match self {
            ColHasher::Dict { codes, hashes } => hashes[codes[row] as usize],
            ColHasher::Generic(col) => {
                scratch.clear();
                encode_col_value(scratch, col, row);
                fnv1a(scratch)
            }
        }
    }
}

/// Shard owning a group key — the routing used for [`StatePartial`]
/// entries and window-result ownership checks. Matches
/// [`Batch::shard_by_key`] row assignment for the same key values by
/// construction, and allocates nothing.
pub fn shard_of_values(key: &GroupKey, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let h = key
        .fragments()
        .fold(FNV_OFFSET, |h, f| combine(h, fnv1a(f)));
    (h % n as u64) as usize
}

/// The contiguous slice of the `n_shards`-wide hash ring owned by `node`
/// out of `n_nodes`. Slices partition the ring: remainders go to the first
/// `n_shards % n_nodes` nodes, so every shard is owned by exactly one node
/// and slice sizes differ by at most one.
pub fn shards_of_node(node: usize, n_shards: usize, n_nodes: usize) -> std::ops::Range<usize> {
    assert!(n_nodes >= 1, "a cluster has at least one node");
    assert!(node < n_nodes, "node {node} out of {n_nodes}");
    let q = n_shards / n_nodes;
    let r = n_shards % n_nodes;
    let start = node * q + node.min(r);
    start..start + q + usize::from(node < r)
}

/// The node owning virtual shard `shard` — the inverse of
/// [`shards_of_node`]. Total (every shard has exactly one owner for any
/// `n_nodes >= 1`) and stable in the sense that matters for exactness: the
/// key → shard mapping ([`shard_of_values`]) never changes with the node
/// count, only the shard → node placement does.
pub fn node_of_shard(shard: usize, n_shards: usize, n_nodes: usize) -> usize {
    assert!(n_nodes >= 1, "a cluster has at least one node");
    assert!(
        shard < n_shards,
        "shard {shard} outside the {n_shards}-ring"
    );
    let q = n_shards / n_nodes;
    let r = n_shards % n_nodes;
    // The first `r` nodes own `q + 1` shards each (the "fat" prefix).
    let fat = (q + 1) * r;
    if q == 0 || shard < fat {
        shard / (q + 1)
    } else {
        r + (shard - fat) / q
    }
}

/// Shard assignment of every row, without materialising the sub-batches
/// (proptests and routers that only need the mapping).
pub fn shard_assignment(batch: &Batch, keys: &[usize], n: usize) -> Vec<usize> {
    let rows = batch.len();
    if n <= 1 {
        return vec![0; rows];
    }
    let hashers: Vec<ColHasher> = keys
        .iter()
        .map(|&k| ColHasher::new(&batch.columns[k]))
        .collect();
    let mut scratch = Vec::with_capacity(32);
    (0..rows)
        .map(|row| {
            let mut h = FNV_OFFSET;
            for hasher in &hashers {
                h = combine(h, hasher.hash_row(&mut scratch, row));
            }
            (h % n as u64) as usize
        })
        .collect()
}

/// The SP tier's routing policy: which virtual shard of the fixed ring a
/// boundary batch's rows and a state delta's entries belong to. Parts come
/// out in ascending shard order with empty parts skipped, so every tier
/// that routes through a `Ring` puts the same payloads on each link in the
/// same order.
#[derive(Debug, Clone)]
pub struct Ring {
    n_shards: usize,
    keys: Vec<usize>,
}

impl Ring {
    /// A ring of `n_shards` virtual shards (at least one) partitioned by the
    /// group-key columns `keys` of the keyed boundary's input edge; `keys`
    /// is empty for plans without a keyed operator.
    pub fn new(n_shards: usize, keys: Vec<usize>) -> Ring {
        Ring {
            n_shards: n_shards.max(1),
            keys,
        }
    }

    /// Width of the ring.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Splits a batch entering the suffix at stage `rel`: boundary batches
    /// (`rel == 0`) of keyed plans partition over the ring by key hash;
    /// batches entering past the boundary (stateless suffix) and keyless
    /// plans go to shard 0 whole.
    pub fn split_batch(&self, rel: usize, batch: Batch) -> Vec<(usize, Batch)> {
        if batch.is_empty() {
            return Vec::new();
        }
        if rel > 0 || self.n_shards == 1 || self.keys.is_empty() {
            return vec![(0, batch)];
        }
        batch
            .shard_by_key(&self.keys, self.n_shards)
            .into_iter()
            .enumerate()
            .filter(|(_, part)| !part.is_empty())
            .collect()
    }

    /// Splits a state delta's group entries by the shard owning their key —
    /// the shard [`Ring::split_batch`] sends a row with the same key to, so
    /// a group's whole lifetime happens on one shard.
    pub fn split_state(&self, delta: StatePartial) -> Vec<(usize, StatePartial)> {
        if self.n_shards == 1 {
            return vec![(0, delta)];
        }
        let StatePartial::Group(entries) = delta;
        let shards: Vec<usize> = entries
            .iter()
            .map(|entry| shard_of_values(&entry.key, self.n_shards))
            .collect();
        let mut sizes = vec![0; self.n_shards];
        for &s in &shards {
            sizes[s] += 1;
        }
        let mut per_shard: Vec<Vec<GroupPartialEntry>> =
            sizes.into_iter().map(Vec::with_capacity).collect();
        for (entry, s) in entries.into_iter().zip(shards) {
            per_shard[s].push(entry);
        }
        per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, part)| !part.is_empty())
            .map(|(s, part)| (s, StatePartial::Group(part)))
            .collect()
    }
}

impl Batch {
    /// Partitions the batch into `n` sub-batches by hashing the `keys`
    /// columns, preserving input row order within each shard. Every row
    /// lands in exactly one shard; rows with equal key values always land
    /// in the same shard (across batches, and matching
    /// [`shard_of_values`] on the same values). Built on [`Batch::gather`];
    /// dictionary key columns hash via a per-page precomputed code→hash
    /// table instead of re-hashing strings per row.
    pub fn shard_by_key(&self, keys: &[usize], n: usize) -> Vec<Batch> {
        if n <= 1 {
            return vec![self.clone()];
        }
        let assignment = shard_assignment(self, keys, n);
        let mut rows_per_shard = vec![0usize; n];
        for &s in &assignment {
            rows_per_shard[s] += 1;
        }
        let mut picks: Vec<Vec<u32>> = rows_per_shard
            .iter()
            .map(|&c| Vec::with_capacity(c))
            .collect();
        for (row, &s) in assignment.iter().enumerate() {
            picks[s].push(row as u32);
        }
        picks
            .iter()
            .map(|rows| {
                if rows.len() == self.len() {
                    // Degenerate split (single-key batch): skip the gather.
                    self.clone()
                } else {
                    self.gather(rows)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::schema::{DataType, Field, Schema, SchemaRef};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::U64),
        ])
    }

    fn batch(rows: &[(&str, u64)]) -> Batch {
        let recs: Vec<Record> = rows
            .iter()
            .enumerate()
            .map(|(i, (k, v))| Record::new(i as i64, vec![Value::str(*k), Value::U64(*v)]))
            .collect();
        Batch::from_records(schema(), &recs).unwrap()
    }

    #[test]
    fn every_row_lands_in_exactly_one_shard() {
        let b = batch(&[("a", 1), ("b", 2), ("c", 3), ("a", 4), ("b", 5)]);
        for n in [1, 2, 3, 4, 7] {
            let shards = b.shard_by_key(&[0], n);
            assert_eq!(shards.len(), n);
            let total: usize = shards.iter().map(Batch::len).sum();
            assert_eq!(total, b.len());
            let mut rows: Vec<Record> = shards.iter().flat_map(Batch::to_records).collect();
            let mut expected = b.to_records();
            let key = |r: &Record| format!("{r:?}");
            rows.sort_by_key(key);
            expected.sort_by_key(key);
            assert_eq!(rows, expected);
        }
    }

    #[test]
    fn equal_keys_share_a_shard_across_batches() {
        let a = batch(&[("x", 1), ("y", 2), ("z", 3)]);
        let b = batch(&[("z", 9), ("x", 8)]);
        let n = 4;
        let sa = shard_assignment(&a, &[0], n);
        let sb = shard_assignment(&b, &[0], n);
        assert_eq!(sa[0], sb[1], "key x");
        assert_eq!(sa[2], sb[0], "key z");
    }

    #[test]
    fn shard_of_values_matches_row_assignment() {
        let b = batch(&[("a", 7), ("bb", 7), ("", 9), ("a", 1)]);
        let n = 5;
        let assign = shard_assignment(&b, &[0, 1], n);
        for (row, &shard) in assign.iter().enumerate() {
            let key = GroupKey::from_values(&[b.columns[0].value(row), b.columns[1].value(row)]);
            assert_eq!(shard_of_values(&key, n), shard);
        }
    }

    #[test]
    fn dict_and_str_keys_hash_identically() {
        let plain = batch(&[("cpu", 1), ("mem", 2), ("cpu", 3), ("io", 4)]);
        let mut dict = plain.clone();
        assert!(dict.dict_encode(16));
        for n in [2, 3, 8] {
            assert_eq!(
                shard_assignment(&plain, &[0], n),
                shard_assignment(&dict, &[0], n)
            );
        }
    }

    #[test]
    fn opt_and_null_keys_shard_consistently() {
        let s = Schema::new(vec![Field::new("k", DataType::Str)]);
        let recs = vec![
            Record::new(0, vec![Value::str("a")]),
            Record::new(1, vec![Value::Null]),
            Record::new(2, vec![Value::str("a")]),
        ];
        let b = Batch::from_records(s, &recs).unwrap();
        let n = 3;
        let assign = shard_assignment(&b, &[0], n);
        assert_eq!(assign[0], assign[2]);
        assert_eq!(
            shard_of_values(&GroupKey::from_values(&[Value::Null]), n),
            assign[1]
        );
        assert_eq!(
            shard_of_values(&GroupKey::from_values(&[Value::str("a")]), n),
            assign[0]
        );
    }

    #[test]
    fn single_shard_is_a_clone() {
        let b = batch(&[("a", 1), ("b", 2)]);
        let shards = b.shard_by_key(&[0], 1);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0], b);
    }

    #[test]
    fn empty_key_set_routes_everything_to_one_shard() {
        // No keyed operator: every row hashes to the same (empty) key.
        let b = batch(&[("a", 1), ("b", 2), ("c", 3)]);
        let shards = b.shard_by_key(&[], 4);
        let non_empty: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(non_empty.len(), 1);
        assert_eq!(shards[non_empty[0]].len(), 3);
    }

    #[test]
    fn ring_slices_partition_the_shards() {
        for n_shards in 1..=66usize {
            for n_nodes in 1..=9usize {
                let mut owner = vec![usize::MAX; n_shards];
                for node in 0..n_nodes {
                    for s in shards_of_node(node, n_shards, n_nodes) {
                        assert_eq!(owner[s], usize::MAX, "shard {s} owned twice");
                        owner[s] = node;
                    }
                }
                for (s, &node) in owner.iter().enumerate() {
                    assert_ne!(node, usize::MAX, "shard {s} unowned");
                    assert_eq!(
                        node_of_shard(s, n_shards, n_nodes),
                        node,
                        "inverse mismatch at shard {s} ({n_shards} shards, {n_nodes} nodes)"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_slices_are_contiguous_and_balanced() {
        let n_shards = 10;
        let n_nodes = 4;
        let sizes: Vec<usize> = (0..n_nodes)
            .map(|n| shards_of_node(n, n_shards, n_nodes).len())
            .collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(shards_of_node(0, n_shards, n_nodes), 0..3);
        assert_eq!(shards_of_node(3, n_shards, n_nodes), 8..10);
    }

    #[test]
    fn key_to_shard_mapping_ignores_node_count() {
        // The exactness anchor: node counts repartition shards, never keys.
        let b = batch(&[("a", 1), ("b", 2), ("c", 3)]);
        let assign = shard_assignment(&b, &[0], 8);
        for n_nodes in 1..=8 {
            let again = shard_assignment(&b, &[0], 8);
            assert_eq!(assign, again);
            for &s in &again {
                let _ = node_of_shard(s, 8, n_nodes);
            }
        }
    }

    #[test]
    fn persistent_dict_keys_hash_identically_across_growth() {
        use crate::batch::StreamDict;
        let plain = batch(&[("cpu", 1), ("mem", 2), ("cpu", 3), ("io", 4)]);
        let mut stream = StreamDict::new();
        let enc = |stream: &mut StreamDict, b: &Batch| {
            let mut out = b.clone();
            out.columns[0] = out.columns[0].dict_encode_with(stream, 64).unwrap();
            out
        };
        let persistent = enc(&mut stream, &plain);
        for n in [2, 3, 8] {
            assert_eq!(
                shard_assignment(&plain, &[0], n),
                shard_assignment(&persistent, &[0], n),
                "cached code hashes must agree with canonical hashing"
            );
        }
        // Growth: the cached table extends, codes past the old length hash
        // like their plain counterparts.
        let plain2 = batch(&[("net", 5), ("cpu", 6), ("disk", 7)]);
        let persistent2 = enc(&mut stream, &plain2);
        let (d2, _) = persistent2.columns[0].as_dict().unwrap();
        assert_eq!(d2.len(), 5, "page grew");
        for n in [2, 3, 8] {
            assert_eq!(
                shard_assignment(&plain2, &[0], n),
                shard_assignment(&persistent2, &[0], n)
            );
        }
    }

    #[test]
    fn shared_dict_pages_survive_sharding() {
        let dict = Arc::new(StrDict::from_entries(["a", "b", "c"]));
        let b = Batch {
            schema: Schema::new(vec![Field::new("k", DataType::Str)]),
            timestamps: (0..6).collect(),
            columns: vec![Column::Dict {
                codes: vec![0, 1, 2, 0, 1, 2],
                dict: dict.clone(),
            }],
        };
        let shards = b.shard_by_key(&[0], 3);
        for s in &shards {
            if let Some((d, _)) = s.columns[0].as_dict() {
                assert!(std::ptr::eq(d, dict.as_ref()), "page must be shared");
            }
        }
    }
}
