//! Properties of the one routing policy every SP tier shares
//! (`streamkit::shard::Ring`): rows and shipped state entries with the same
//! group key always meet on the same shard — the "a group's whole lifetime
//! is on one shard" invariant exactness rests on.

use std::collections::BTreeMap;

use proptest::prelude::*;

use jarvis::streamkit::agg::AggState;
use jarvis::streamkit::batch::Batch;
use jarvis::streamkit::ops::{GroupPartialEntry, StatePartial};
use jarvis::streamkit::record::Record;
use jarvis::streamkit::schema::{DataType, Field, Schema};
use jarvis::streamkit::shard::{shard_assignment, Ring};
use jarvis::streamkit::value::Value;

/// A `(tenant: Str, stat: U32, v: U32)` batch; the first two columns key it.
fn batch_of(rows: &[(u32, u32, u32, i64)]) -> (Vec<Record>, Batch) {
    let schema = Schema::new(vec![
        Field::new("tenant", DataType::Str),
        Field::new("stat", DataType::U32),
        Field::new("v", DataType::U32),
    ]);
    let records: Vec<Record> = rows
        .iter()
        .map(|(t, s, v, ts)| {
            Record::new(
                *ts,
                vec![
                    Value::str(format!("tenant-{t}")),
                    Value::U64(u64::from(*s)),
                    Value::U64(u64::from(*v)),
                ],
            )
        })
        .collect();
    let batch = Batch::from_records(schema, &records).unwrap();
    (records, batch)
}

fn sorted(mut rows: Vec<Record>) -> Vec<Record> {
    rows.sort_by_key(|r| format!("{:?}|{:?}", r.ts, r.values));
    rows
}

proptest! {
    /// `split_batch` at the boundary of a keyed plan is a partition in
    /// ascending shard order with no empty parts, and each part holds
    /// exactly the rows the key hash assigns to its shard.
    #[test]
    fn boundary_batches_partition_over_the_ring(
        rows in proptest::collection::vec(
            (0u32..10, 0u32..6, any::<u32>(), 0i64..1_000_000),
            0..150,
        ),
        n in 1usize..9,
    ) {
        let keys = vec![0, 1];
        let (records, batch) = batch_of(&rows);
        let parts = Ring::new(n, keys.clone()).split_batch(0, batch);
        let shards: Vec<usize> = parts.iter().map(|(s, _)| *s).collect();
        prop_assert!(shards.windows(2).all(|w| w[0] < w[1]), "ascending: {:?}", shards);
        prop_assert!(shards.iter().all(|&s| s < n));
        for (s, part) in &parts {
            prop_assert!(!part.is_empty(), "empty parts are skipped");
            prop_assert!(shard_assignment(part, &keys, n).iter().all(|a| a == s));
        }
        let routed: Vec<Record> = parts.iter().flat_map(|(_, p)| p.to_records()).collect();
        prop_assert_eq!(sorted(routed), sorted(records));
    }

    /// Past the boundary, and for keyless plans, nothing is partitioned:
    /// the whole batch goes to shard 0.
    #[test]
    fn everything_else_goes_to_shard_zero(
        rows in proptest::collection::vec(
            (0u32..10, 0u32..6, any::<u32>(), 0i64..1_000_000),
            1..60,
        ),
        n in 1usize..9,
        rel in 1usize..4,
    ) {
        let (_, batch) = batch_of(&rows);
        let keyed = Ring::new(n, vec![0, 1]);
        let keyless = Ring::new(n, Vec::new());
        for parts in [keyed.split_batch(rel, batch.clone()), keyless.split_batch(0, batch.clone())] {
            prop_assert_eq!(parts.len(), 1);
            prop_assert_eq!(parts[0].0, 0);
            prop_assert_eq!(&parts[0].1, &batch);
        }
    }

    /// `split_state` sends every entry to the shard `split_batch` sends a
    /// row with the same key to, keeps every entry, and emits shards in
    /// ascending order.
    #[test]
    fn state_entries_follow_their_keys_rows(
        rows in proptest::collection::vec(
            (0u32..10, 0u32..6, any::<u32>(), 0i64..1_000_000),
            1..150,
        ),
        n in 1usize..9,
    ) {
        let (_, batch) = batch_of(&rows);
        let ring = Ring::new(n, vec![0, 1]);
        // Where each key's rows go.
        let mut row_shard: BTreeMap<String, usize> = BTreeMap::new();
        for (s, part) in ring.split_batch(0, batch) {
            for rec in part.to_records() {
                row_shard.insert(format!("{:?}", &rec.values[..2]), s);
            }
        }
        // One state entry per distinct key.
        let keys: BTreeMap<(u32, u32), Vec<Value>> = rows
            .iter()
            .map(|(t, s, _, _)| {
                ((*t, *s), vec![Value::str(format!("tenant-{t}")), Value::U64(u64::from(*s))])
            })
            .collect();
        let entries: Vec<GroupPartialEntry> = keys
            .into_values()
            .map(|key| GroupPartialEntry { window_start: 0, key, states: vec![AggState::Count(1)] })
            .collect();
        let total = entries.len();
        let parts = ring.split_state(StatePartial::Group(entries));
        let shards: Vec<usize> = parts.iter().map(|(s, _)| *s).collect();
        prop_assert!(shards.windows(2).all(|w| w[0] < w[1]), "ascending: {:?}", shards);
        let mut seen = 0;
        for (s, StatePartial::Group(part)) in parts {
            prop_assert!(!part.is_empty());
            for entry in part {
                prop_assert_eq!(row_shard[&format!("{:?}", entry.key)], s);
                seen += 1;
            }
        }
        prop_assert_eq!(seen, total);
    }
}
