//! Property-based tests over the system's core invariants (DESIGN.md §7).

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

use jarvis::core::proxy::{ControlProxy, Route};
use jarvis::lp::loadfactor::{solve_load_factors, LoadFactorProblem};
use jarvis::streamkit::agg::{AggKind, AggSpec, AggState};
use jarvis::streamkit::batch::Batch;
use jarvis::streamkit::encode::{decode_batch, encode_batch};
use jarvis::streamkit::ops::GroupKey;
use jarvis::streamkit::record::Record;
use jarvis::streamkit::schema::{DataType, Field, Schema};
use jarvis::streamkit::value::Value;

mod common;
use common::key_value;
use jarvis::streamkit::watermark::WatermarkMerger;
use jarvis::streamkit::window::TumblingWindow;

proptest! {
    /// Proxy conservation: forwarded + drained == arrived, and the forwarded
    /// fraction converges to the load factor.
    #[test]
    fn proxy_conserves_records(p in 0.0f64..=1.0, n in 100usize..5_000) {
        let mut proxy = ControlProxy::new(p, 0.05, 0.25);
        let mut forwarded = 0u64;
        for _ in 0..n {
            if proxy.route() == Route::Forward {
                forwarded += 1;
            }
        }
        let counters = proxy.epoch_counters();
        prop_assert_eq!(counters.forwarded + counters.drained_routing, counters.arrived);
        prop_assert_eq!(counters.forwarded, forwarded);
        let frac = forwarded as f64 / n as f64;
        prop_assert!((frac - p).abs() <= 1.0 / n as f64 + 1e-9,
            "p={} frac={}", p, frac);
    }

    /// The LP solution always satisfies the chain and budget constraints,
    /// and never drains more than the all-remote plan.
    #[test]
    fn lp_solution_is_feasible(
        costs in proptest::collection::vec((0u8..4, 0.01f64..50.0), 1..6),
        relays in proptest::collection::vec((0u8..4, 0.05f64..1.0), 1..6),
        budget_frac in (0u8..4, 0.0f64..1.5),
    ) {
        let sol = solve_load_factors(&lp_problem(&costs, &relays, budget_frac));
        // Chain: e_i <= e_{i-1} <= 1.
        let mut prev = 1.0f64;
        for &e in &sol.effective {
            prop_assert!(e <= prev + 1e-9);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&e));
            prev = e;
        }
        // Budget: within the constraint (allowing float slack).
        prop_assert!(sol.budget_use <= 1.0 + 1e-6, "budget use {}", sol.budget_use);
        // Objective sane: drained fraction in [0, 1].
        prop_assert!((0.0..=1.0 + 1e-9).contains(&sol.drained_fraction));
    }

    /// The LP is optimal, not just feasible, up to five operators deep and
    /// on the degenerate shapes where only the tie-break decides.
    #[test]
    fn lp_solution_is_optimal_on_a_grid(
        costs in proptest::collection::vec((0u8..4, 0.01f64..50.0), 1..6),
        relays in proptest::collection::vec((0u8..4, 0.05f64..1.0), 5..6),
        budget_frac in (0u8..4, 0.0f64..1.5),
    ) {
        assert_lp_optimal_on_grid(&lp_problem(&costs, &relays, budget_frac));
    }

    /// Aggregate merging is split-invariant: merging partials equals
    /// aggregating the whole stream. Count/Min/Max are bit-exact; Sum/Avg
    /// are exact up to float re-association across the split boundary.
    #[test]
    fn aggregate_merge_is_split_invariant(
        values in proptest::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split % values.len();
        for kind in [AggKind::Count, AggKind::Sum, AggKind::Min, AggKind::Max, AggKind::Avg] {
            let spec = AggSpec::new(kind.clone(), 0, "x");
            let mut left = spec.init();
            let mut right = spec.init();
            let mut whole = spec.init();
            for (i, v) in values.iter().enumerate() {
                let value = Value::F64(*v);
                if i < split { left.update(&value); } else { right.update(&value); }
                whole.update(&value);
            }
            left.merge(&right);
            match kind {
                AggKind::Sum | AggKind::Avg => {
                    let (a, b) = (finalize_f64(&left), finalize_f64(&whole));
                    let tol = 1e-9 * values.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
                    prop_assert!((a - b).abs() <= tol, "kind {:?}: {} vs {}", kind, a, b);
                }
                _ => prop_assert_eq!(
                    finalize_bits(&left),
                    finalize_bits(&whole),
                    "kind {:?}", kind
                ),
            }
        }
    }

    /// Batch and wire encodings round-trip arbitrary records.
    #[test]
    fn batch_and_wire_round_trip(
        rows in proptest::collection::vec(
            (any::<i64>(), any::<u32>(), -1e9f64..1e9, "[a-z0-9 ]{0,24}"),
            0..50,
        )
    ) {
        let schema = Schema::with_overhead(vec![
            Field::new("a", DataType::I64),
            Field::new("b", DataType::U32),
            Field::new("c", DataType::F64),
            Field::new("d", DataType::Str),
        ], 7);
        let records: Vec<Record> = rows
            .iter()
            .map(|(a, b, c, d)| Record::new(
                *a,
                vec![Value::I64(*a), Value::U64(u64::from(*b)), Value::F64(*c), Value::str(d)],
            ))
            .collect();
        let batch = Batch::from_records(schema.clone(), &records).unwrap();
        prop_assert_eq!(batch.to_records(), records.clone());
        let decoded = decode_batch(schema, encode_batch(&batch)).unwrap();
        prop_assert_eq!(decoded.to_records(), records);
    }

    /// Dictionary string columns round-trip the wire for arbitrary entry
    /// sets — including the empty dictionary, dictionaries beyond 255
    /// entries (codes wider than one byte), and `Opt`-wrapped (nullable)
    /// dict columns.
    #[test]
    fn dict_columns_round_trip_the_wire(
        entries in proptest::collection::vec("[a-z0-9]{0,12}", 0..300),
        picks in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..120),
    ) {
        use jarvis::streamkit::batch::DictBuilder;

        let schema = Schema::new(vec![
            Field::new("dense", DataType::Str),
            Field::new("nullable", DataType::Str),
        ]);
        let mut dense = DictBuilder::new(picks.len());
        let mut nullable = DictBuilder::new(picks.len());
        for (pick, valid) in &picks {
            let entry = if entries.is_empty() {
                ""
            } else {
                entries[*pick as usize % entries.len()].as_str()
            };
            dense.push(entry);
            if *valid && !entries.is_empty() {
                nullable.push(entry);
            } else {
                nullable.push_null();
            }
        }
        let batch = Batch {
            schema: schema.clone(),
            timestamps: (0..picks.len() as i64).collect(),
            columns: vec![dense.finish(), nullable.finish()],
        };
        let decoded = decode_batch(schema, encode_batch(&batch)).unwrap();
        prop_assert_eq!(decoded.to_records(), batch.to_records());
        prop_assert_eq!(decoded.wire_size(), batch.wire_size());
    }

    /// Integer pages over every column shape — constant, narrow,
    /// sign-straddling `i64`, `u64` at and past 2^63, full-range, empty —
    /// dense and `Opt` (null fillers included), with both dictionary page
    /// kinds: the frame round-trips structurally, never exceeds the
    /// fixed-width encoding by more than its width tags, and every
    /// truncation or single-byte corruption of it decodes to a typed error
    /// or a batch of the same shape — never a panic.
    #[test]
    fn integer_pages_round_trip_bounded_and_hardened(
        shape in 0u8..6,
        seeds in proptest::collection::vec(any::<u64>(), 1..40),
        nulls in proptest::collection::vec(any::<bool>(), 40..41),
        delta in any::<bool>(),
    ) {
        use jarvis::streamkit::batch::{Column, DictRegistry, DictVersions, StreamDict};
        use jarvis::streamkit::encode::{decode_batch_with, encode_batch_with};

        let schema = Schema::new(vec![
            Field::new("a", DataType::I64),
            Field::new("b", DataType::U64),
            Field::new("tenant", DataType::Str),
        ]);
        let k = seeds[0];
        let seeds = if shape == 5 { &seeds[..0] } else { &seeds[..] };
        let rows = seeds.len();
        let signed = |s: u64| match shape {
            0 => k as i64,
            1 => (k as i64).wrapping_add((s % 250) as i64),
            2 => (s % 60_000) as i64 - 30_000,
            3 => i64::MIN + (s % 70_000) as i64,
            _ => s as i64,
        };
        let unsigned = |s: u64| match shape {
            0 => k,
            1 => k.wrapping_add(s % 250),
            2 => (1u64 << 63) - 500 + s % 1000,
            3 => (1u64 << 63) + s % 70_000,
            _ => s,
        };
        let valid: Vec<bool> = nulls[..rows].to_vec();
        let mut stream = StreamDict::new();
        let codes: Vec<u32> = seeds
            .iter()
            .zip(&valid)
            .map(|(s, v)| {
                if *v { stream.intern(&format!("tenant-{}", s % 300)) } else { 0 }
            })
            .collect();
        let batch = Batch {
            schema: schema.clone(),
            timestamps: seeds.iter().map(|s| signed(*s)).collect(),
            columns: vec![
                Column::I64(seeds.iter().map(|s| signed(s.rotate_left(17))).collect()),
                Column::Opt {
                    valid: valid.clone(),
                    values: Box::new(Column::U64(
                        seeds
                            .iter()
                            .zip(&valid)
                            .map(|(s, v)| if *v { unsigned(*s) } else { 0 })
                            .collect(),
                    )),
                },
                Column::Opt {
                    valid: valid.clone(),
                    values: Box::new(Column::Dict { codes, dict: stream.snapshot() }),
                },
            ],
        };
        let encode = || if delta {
            encode_batch_with(&batch, &mut DictVersions::new())
        } else {
            encode_batch(&batch)
        };
        let decode = |raw: Vec<u8>| if delta {
            decode_batch_with(schema.clone(), raw.into(), &mut DictRegistry::new())
        } else {
            decode_batch(schema.clone(), raw.into())
        };
        let wire = encode();
        prop_assert_eq!(decode(wire.to_vec()).unwrap(), batch.clone());

        // The fixed-width format this one replaced: 8 B a timestamp and
        // integer, 4 B a code; everything else is unchanged.
        let entries: usize = stream.snapshot().iter().map(|e| 2 + e.len()).sum();
        let fixed = 8 + 8 * rows
            + (1 + 8 * rows)
            + (1 + rows + 8 * rows)
            + (1 + rows + 1 + if delta { 24 } else { 4 } + entries + 4 * rows);
        prop_assert!(
            wire.len() <= fixed + 4,
            "{} B encoded vs {} B fixed-width + 4 width tags", wire.len(), fixed
        );
        if shape < 4 && rows >= 16 {
            prop_assert!(wire.len() < fixed, "narrow columns must shrink the frame");
        }

        // Whatever decodes is a well-formed batch, and — unless the row
        // count itself (bytes 4..8) was hit — one of the original length.
        let well_formed = |b: &Batch, at: usize| {
            b.columns.iter().all(|c| c.len() == b.timestamps.len())
                && ((4..8).contains(&at) || b.timestamps.len() == rows)
        };
        for cut in 0..wire.len() {
            if let Ok(b) = decode(wire[..cut].to_vec()) {
                prop_assert!(well_formed(&b, cut), "truncation at {} changed the shape", cut);
            }
        }
        for at in 0..wire.len() {
            for flip in [0x01u8, 0xFF] {
                let mut raw = wire.to_vec();
                raw[at] ^= flip;
                if let Ok(b) = decode(raw) {
                    prop_assert!(well_formed(&b, at), "corruption at {} changed the shape", at);
                }
            }
        }
    }

    /// Group-state bodies over every shape their columns carry — nullable
    /// and all-null key columns, strings, extreme `i64` / `u64`, NaN and
    /// ±inf states, quantile sketches, bodies of several shapes, and
    /// entries too wide for one run — round-trip bit-exactly. Every
    /// truncation decodes to a typed error or to the runs before the cut,
    /// every single-byte corruption to a typed error or to no more entries
    /// than the body has bytes and no more than eight slots (key values and
    /// states) a byte, never a panic; and a forged entry count is refused
    /// before it sizes an allocation.
    #[test]
    fn state_bodies_round_trip_exactly_and_hardened(
        shape in 0u8..4,
        seeds in proptest::collection::vec(any::<u64>(), 1..20),
        nulls in proptest::collection::vec(any::<bool>(), 20..21),
    ) {
        use jarvis::streamkit::encode::{decode_group_state, encode_group_state};

        let entries = state_entries(shape, &seeds, &nulls);
        let wire = encode_group_state(&entries);
        let decode = |raw: &[u8]| decode_group_state(raw.to_vec().into());
        let back = decode(&wire).unwrap();
        prop_assert_eq!(entry_bits(&back), entry_bits(&entries));

        let bits = entry_bits(&entries);
        for cut in 0..wire.len() {
            if let Ok(prefix) = decode(&wire[..cut]) {
                prop_assert_eq!(
                    &entry_bits(&prefix)[..],
                    &bits[..prefix.len()],
                    "truncation at {} is no run prefix", cut
                );
            }
        }
        for at in 0..wire.len() {
            for flip in [0x01u8, 0xFF] {
                let mut raw = wire.to_vec();
                raw[at] ^= flip;
                if let Ok(got) = decode(&raw) {
                    let slots: usize = got.iter().map(|e| e.key.arity() + e.states.len()).sum();
                    prop_assert!(
                        got.len() <= raw.len() && slots <= 8 * raw.len(),
                        "corruption at {} forged entries", at
                    );
                }
            }
        }

        // The first run's entry count sits after its shape and the batch
        // magic: a forged one must fail on the bytes, not allocate.
        let arity = u16::from_le_bytes([wire[0], wire[1]]) as usize;
        let aggs_at = 2 + arity;
        let aggs = u16::from_le_bytes([wire[aggs_at], wire[aggs_at + 1]]) as usize;
        let rows_at = aggs_at + 2 + aggs + 4;
        let mut forged = wire.to_vec();
        forged[rows_at..rows_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        prop_assert!(decode(&forged).is_err());
    }

    /// Grouping on dictionary keys is indistinguishable from grouping on
    /// the same strings in plain columns, for arbitrary key/value streams
    /// split arbitrarily into batches.
    #[test]
    fn dict_and_str_group_keys_agree(
        rows in proptest::collection::vec(
            (0u32..12, 0u32..4, -1e6f64..1e6, 0i64..40_000_000),
            1..200,
        ),
        cut in 0usize..200,
    ) {
        use jarvis::streamkit::ops::{AggRole, CostModel, EmitMode, GroupAggregateOp, Operator};

        let schema = Schema::new(vec![
            Field::new("tenant", DataType::Str),
            Field::new("stat", DataType::Str),
            Field::new("v", DataType::F64),
        ]);
        let records: Vec<Record> = rows
            .iter()
            .map(|(t, s, v, ts)| Record::new(
                *ts,
                vec![
                    Value::str(format!("tenant-{t}")),
                    Value::str(["a", "bb", "ccc", ""][*s as usize]),
                    Value::F64(*v),
                ],
            ))
            .collect();
        let mk_op = || GroupAggregateOp::new(
            vec![0, 1],
            vec![
                AggSpec::new(AggKind::Sum, 2, "sum"),
                AggSpec::new(AggKind::Avg, 2, "avg"),
                AggSpec::new(AggKind::Max, 2, "max"),
                AggSpec::new(AggKind::Count, 2, "n"),
            ],
            &schema,
            TumblingWindow::new(10_000_000),
            EmitMode::OnWindowClose,
            AggRole::Final,
            CostModel::fixed(1.0),
        );
        let mut str_op = mk_op();
        let mut dict_op = mk_op();
        // Split into two batches at an arbitrary cut: the two batches build
        // *different* dictionaries for the same strings, which must not
        // affect grouping.
        let cut = cut.min(records.len());
        for part in [&records[..cut], &records[cut..]] {
            let plain = Batch::from_records(schema.clone(), part).unwrap();
            let mut dict = plain.clone();
            dict.dict_encode(64);
            let mut sink = Vec::new();
            str_op.process_batch(plain, &mut sink);
            dict_op.process_batch(dict, &mut sink);
            prop_assert!(sink.is_empty());
        }
        let mut str_out = Vec::new();
        let mut dict_out = Vec::new();
        str_op.on_watermark(i64::MAX, &mut str_out);
        dict_op.on_watermark(i64::MAX, &mut dict_out);
        let flat = |out: &[Batch]| -> Vec<Record> {
            out.iter().flat_map(Batch::to_records).collect()
        };
        prop_assert_eq!(flat(&str_out), flat(&dict_out));
    }

    /// Key-hash sharding is a partition: every row lands in exactly one
    /// shard, rows keep their content and relative order within a shard,
    /// and equal keys always share a shard (checked against the
    /// value-keyed routing used for shipped state).
    #[test]
    fn shard_by_key_partitions_rows(
        rows in proptest::collection::vec(
            (0u32..10, 0u32..6, any::<u32>(), 0i64..1_000_000),
            1..150,
        ),
        n in 1usize..9,
    ) {
        use jarvis::streamkit::shard::shard_of_values;

        let schema = Schema::new(vec![
            Field::new("tenant", DataType::Str),
            Field::new("stat", DataType::U32),
            Field::new("v", DataType::U32),
        ]);
        let records: Vec<Record> = rows
            .iter()
            .map(|(t, s, v, ts)| Record::new(
                *ts,
                vec![
                    Value::str(format!("tenant-{t}")),
                    Value::U64(u64::from(*s)),
                    Value::U64(u64::from(*v)),
                ],
            ))
            .collect();
        let batch = Batch::from_records(schema, &records).unwrap();
        let shards = batch.shard_by_key(&[0, 1], n);
        prop_assert_eq!(shards.len(), n);
        // Every row in exactly one shard: counts add up and the multiset of
        // rows round-trips.
        let total: usize = shards.iter().map(Batch::len).sum();
        prop_assert_eq!(total, batch.len());
        let mut sharded: Vec<Record> = shards.iter().flat_map(Batch::to_records).collect();
        let mut expected = records.clone();
        let sort_key = |r: &Record| format!("{:?}|{:?}", r.ts, r.values);
        sharded.sort_by_key(sort_key);
        expected.sort_by_key(sort_key);
        prop_assert_eq!(sharded, expected);
        // Row routing agrees with value routing (state-delta ownership),
        // and rows preserve input order within their shard.
        for (k, shard) in shards.iter().enumerate() {
            let mut last_pos = 0usize;
            for row in 0..shard.len() {
                let key = GroupKey::from_values(&[shard.columns[0].value(row), shard.columns[1].value(row)]);
                prop_assert_eq!(shard_of_values(&key, n), k);
                let rec = Record::new(
                    shard.timestamps[row],
                    (0..shard.columns.len()).map(|c| shard.columns[c].value(row)).collect(),
                );
                let pos = records[last_pos..]
                    .iter()
                    .position(|r| *r == rec)
                    .map(|p| last_pos + p);
                prop_assert!(pos.is_some(), "shard rows keep input order");
                last_pos = pos.unwrap() + 1;
            }
        }
    }

    /// Dictionary-encoding the key columns must not change shard
    /// assignment: the per-page code-hash fast path hashes exactly the
    /// canonical bytes the plain-string path hashes.
    #[test]
    fn shard_by_dict_equals_shard_by_str(
        rows in proptest::collection::vec((0u32..12, 0i64..1_000_000), 1..120),
        n in 2usize..8,
    ) {
        use jarvis::streamkit::shard::shard_assignment;

        let schema = Schema::new(vec![Field::new("k", DataType::Str)]);
        let records: Vec<Record> = rows
            .iter()
            .map(|(k, ts)| Record::new(*ts, vec![Value::str(["", "a", "bb", "ccc", "dddd",
                "tenant-0", "tenant-1", "tenant-2", "x", "yy", "zzz", "w"][*k as usize])]))
            .collect();
        let plain = Batch::from_records(schema, &records).unwrap();
        let mut dict = plain.clone();
        dict.dict_encode(64);
        prop_assert_eq!(
            shard_assignment(&plain, &[0], n),
            shard_assignment(&dict, &[0], n)
        );
    }

    /// Sharding commutes with batch splitting: shard every chunk of a
    /// random split and the per-shard concatenation equals sharding the
    /// whole batch (the router chunks batches arbitrarily over the
    /// channels, which must not affect shard content or order).
    #[test]
    fn shard_by_key_is_stable_under_batch_splits(
        rows in proptest::collection::vec((0u32..8, any::<u32>(), 0i64..1_000_000), 1..150),
        cuts in proptest::collection::vec(1usize..149, 0..5),
        n in 2usize..6,
    ) {
        let schema = Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("v", DataType::U32),
        ]);
        let records: Vec<Record> = rows
            .iter()
            .map(|(k, v, ts)| Record::new(
                *ts,
                vec![Value::U64(u64::from(*k)), Value::U64(u64::from(*v))],
            ))
            .collect();
        let batch = Batch::from_records(schema, &records).unwrap();
        let whole: Vec<Vec<Record>> = batch
            .shard_by_key(&[0], n)
            .iter()
            .map(Batch::to_records)
            .collect();
        // Split at sorted, deduplicated cut points.
        let mut cuts: Vec<usize> = cuts.into_iter().filter(|&c| c < batch.len()).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut pieces = Vec::new();
        let mut start = 0;
        for &c in &cuts {
            pieces.push(batch.slice(start..c));
            start = c;
        }
        pieces.push(batch.slice(start..batch.len()));
        let mut stitched: Vec<Vec<Record>> = vec![Vec::new(); n];
        for piece in &pieces {
            for (k, part) in piece.shard_by_key(&[0], n).iter().enumerate() {
                stitched[k].extend(part.to_records());
            }
        }
        prop_assert_eq!(stitched, whole);
    }

    /// Tumbling windows tile the timeline: every timestamp belongs to
    /// exactly one window, and closure is monotone in the watermark.
    #[test]
    fn windows_tile_the_timeline(ts in any::<i32>(), size_s in 1i64..3600) {
        let w = TumblingWindow::new(size_s * 1_000_000);
        let ts = i64::from(ts);
        let start = w.start_of(ts);
        prop_assert!(start <= ts);
        prop_assert!(ts < w.end_of(ts));
        prop_assert_eq!(w.start_of(start), start);
        prop_assert!(w.is_closed(start, w.end_of(ts)));
        prop_assert!(!w.is_closed(start, w.end_of(ts) - 1));
    }

    /// Watermark merging emits a strictly increasing sequence equal to the
    /// running minimum across inputs.
    #[test]
    fn watermark_merge_is_min_and_monotone(
        observations in proptest::collection::vec((0usize..4, 0i64..1_000_000), 1..100)
    ) {
        let mut merger = WatermarkMerger::new(4);
        let mut inputs = [i64::MIN; 4];
        let mut last_emitted = i64::MIN;
        for (stream, wm) in observations {
            if let Some(emitted) = merger.observe(stream, wm) {
                prop_assert!(emitted > last_emitted);
                last_emitted = emitted;
            }
            inputs[stream] = inputs[stream].max(wm);
            let expected_min = inputs.iter().copied().min().unwrap();
            prop_assert_eq!(merger.merged(), expected_min);
        }
    }

    /// A `GroupKey` of values of every kind gives its values back bit for
    /// bit, and so does the serde data model; the JSON round trip is exact
    /// too wherever JSON can hold the floats. (The state codec's round trip
    /// of the same keys is `netpayload_props`'s
    /// `state_keys_of_every_kind_cross_the_wire`.)
    #[test]
    fn group_keys_round_trip_bit_exactly(
        draws in proptest::collection::vec((0u8..8, any::<u64>(), 0usize..40), 0..6),
    ) {
        let values: Vec<Value> = draws.iter().map(|&(k, b, l)| key_value(k, b, l)).collect();
        let key = GroupKey::from_values(&values);
        prop_assert_eq!(key.values(), values.clone());
        prop_assert_eq!(key.arity(), values.len());
        prop_assert_eq!(format!("{key:?}"), format!("{values:?}"));

        // The data model holds a key as its values (`Debug`, so NaNs
        // compare), and gives the key back byte for byte.
        let content = key.to_content();
        prop_assert_eq!(format!("{content:?}"), format!("{:?}", values.to_content()));
        prop_assert_eq!(GroupKey::from_content(&content).unwrap(), key.clone());
        let finite = values.iter().all(|v| !matches!(v, Value::F64(x) if !x.is_finite()));
        if finite {
            let json = serde_json::to_string(&key).unwrap();
            prop_assert_eq!(serde_json::from_str::<GroupKey>(&json).unwrap(), key.clone());
        }
    }
}

/// Keys of 22 to 25 bytes — the inline capacity is 23 — round-trip through
/// their values, the state codec and serde alike.
#[test]
fn group_keys_at_and_past_the_inline_capacity_round_trip() {
    use jarvis::streamkit::encode::{decode_group_state, encode_group_state};
    use jarvis::streamkit::ops::GroupPartialEntry;

    for len in 22..=25 {
        // A string of n bytes encodes in 5 + n, a `U64` in 9.
        for values in [
            vec![Value::str("s".repeat(len - 5))],
            vec![
                Value::U64(u64::MAX),
                Value::str("é".repeat((len - 14) / 2) + &"s".repeat(len % 2)),
            ],
        ] {
            let key = GroupKey::from_values(&values);
            assert_eq!(key.as_bytes().len(), len, "{values:?}");
            assert_eq!(key.values(), values);
            let json = serde_json::to_string(&key).unwrap();
            assert_eq!(serde_json::from_str::<GroupKey>(&json).unwrap(), key);
            let entries = vec![GroupPartialEntry {
                window_start: 0,
                key,
                states: vec![AggState::Count(1)],
            }];
            assert_eq!(
                decode_group_state(encode_group_state(&entries)).unwrap(),
                entries
            );
        }
    }
}

/// The JSON shape of a checkpoint: a key serialises as the values it
/// encodes, as a `Vec<Value>` key did.
#[test]
fn checkpoint_json_shape_is_pinned() {
    use jarvis::core::checkpoint::Checkpoint;
    use jarvis::streamkit::ops::{GroupPartialEntry, StatePartial};

    let ckpt = Checkpoint {
        states: vec![(
            2,
            StatePartial::Group(vec![GroupPartialEntry {
                window_start: 10,
                key: GroupKey::from_values(&[Value::U64(7), Value::str("a"), Value::Null]),
                states: vec![AggState::Count(3), AggState::Avg { sum: 1.5, count: 2 }],
            }]),
        )],
        load_factors: vec![0.5],
    };
    let json = serde_json::to_string(&ckpt).unwrap();
    assert_eq!(json, PINNED_CHECKPOINT_JSON);
    let back: Checkpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(back.states, ckpt.states);
}

const PINNED_CHECKPOINT_JSON: &str = concat!(
    r#"{"states":[[2,{"Group":[{"window_start":10,"#,
    r#""key":[{"U64":7},{"Str":"a"},"Null"],"#,
    r#""states":[{"Count":3},{"Avg":{"sum":1.5,"count":2}}]}]}]],"load_factors":[0.5]}"#,
);

/// Group-state entries for the state-body property: `shape` 0 keeps
/// values narrow, 1 takes them to the integer extremes, 2 interleaves a
/// second key shape and aggregate list, so bodies carry several runs, and
/// 3 widens the keys past what one run of more than eight entries holds.
fn state_entries(
    shape: u8,
    seeds: &[u64],
    nulls: &[bool],
) -> Vec<jarvis::streamkit::ops::GroupPartialEntry> {
    use jarvis::streamkit::ops::GroupPartialEntry;
    use jarvis::streamkit::quantile::QuantileSketch;

    let special = |x: u64| match x % 5 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        _ => x as f64 * 0.5,
    };
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            if shape == 2 && i % 3 == 2 {
                return GroupPartialEntry {
                    window_start: s as i64,
                    key: GroupKey::from_values(&[
                        Value::Bool(s % 2 == 0),
                        Value::F64(f64::from_bits(s)),
                    ]),
                    states: vec![AggState::Count(s)],
                };
            }
            let extreme = shape == 1;
            let signed = if extreme {
                [i64::MIN, i64::MAX, -1][(s % 3) as usize]
            } else {
                (s % 100) as i64 - 50
            };
            let tenant = match s % 7 {
                0 => "é".to_string(),
                1 => String::new(),
                t => format!("tenant-{t}"),
            };
            let mut sketch = QuantileSketch::new(0.0, 100.0, 4);
            for v in 0..s % 6 {
                sketch.insert((s.rotate_left(v as u32) % 120) as f64);
            }
            let mut key = vec![
                if nulls[i] {
                    Value::Null
                } else {
                    Value::I64(signed)
                },
                Value::Null,
                if nulls[(i + 1) % nulls.len()] {
                    Value::Null
                } else {
                    Value::Str(tenant.into())
                },
                Value::U64(if extreme { u64::MAX - s % 3 } else { s % 1000 }),
            ];
            if shape == 3 {
                key.extend((0..5).map(|c| match c % 2 {
                    0 => Value::Null,
                    _ => Value::U64(s >> c),
                }));
            }
            GroupPartialEntry {
                window_start: if extreme { signed } else { 10_000_000 },
                key: GroupKey::from_values(&key),
                states: vec![
                    AggState::Count(if extreme { u64::MAX } else { s % 50 }),
                    AggState::Sum(special(s)),
                    AggState::Min(special(s >> 8)),
                    AggState::Max(special(s >> 16)),
                    AggState::Avg {
                        sum: special(s >> 24),
                        count: s >> 3,
                    },
                    AggState::Quantile {
                        q: special(s >> 32),
                        sketch: Box::new(sketch),
                    },
                ],
            }
        })
        .collect()
}

/// Group-state entries with every float as its bit pattern, so NaN states
/// compare exactly.
fn entry_bits(
    entries: &[jarvis::streamkit::ops::GroupPartialEntry],
) -> Vec<(i64, Vec<Value>, Vec<u64>)> {
    entries
        .iter()
        .map(|e| {
            let mut states = Vec::new();
            for state in &e.states {
                match state {
                    AggState::Count(c) => states.extend([0, *c]),
                    AggState::Sum(x) => states.extend([1, x.to_bits()]),
                    AggState::Min(x) => states.extend([2, x.to_bits()]),
                    AggState::Max(x) => states.extend([3, x.to_bits()]),
                    AggState::Avg { sum, count } => states.extend([4, sum.to_bits(), *count]),
                    AggState::Quantile { q, sketch } => {
                        let (lo, hi, counts, under, over, total) = sketch.to_parts();
                        states.extend([5, q.to_bits(), lo.to_bits(), hi.to_bits()]);
                        states.extend(counts.iter().chain(&[under, over, total]));
                    }
                }
            }
            (e.window_start, e.key.values(), states)
        })
        .collect()
}

fn finalize_bits(state: &AggState) -> u64 {
    match state.finalize() {
        Value::F64(v) => v.to_bits(),
        Value::U64(v) => v,
        Value::Null => u64::MAX,
        other => panic!("unexpected aggregate output {other:?}"),
    }
}

fn finalize_f64(state: &AggState) -> f64 {
    match state.finalize() {
        Value::F64(v) => v,
        Value::U64(v) => v as f64,
        other => panic!("unexpected aggregate output {other:?}"),
    }
}

/// An LP instance from proptest draws. One draw in four takes the exact
/// shape the live W operator and an idle host produce: relay 1.0, cost 0,
/// budget 0.
fn lp_problem(costs: &[(u8, f64)], relays: &[(u8, f64)], budget: (u8, f64)) -> LoadFactorProblem {
    let pick = |(k, v): (u8, f64), special: f64| if k == 0 { special } else { v };
    let m = costs.len().min(relays.len());
    LoadFactorProblem {
        relay: relays[..m].iter().map(|&r| pick(r, 1.0)).collect(),
        cost_us: costs[..m].iter().map(|&c| pick(c, 0.0)).collect(),
        records: 10_000.0,
        budget_us: pick(budget, 0.0) * 1e6,
    }
}

/// No point of a 1/20 grid over the chain `1 ≥ e_1 ≥ … ≥ e_m ≥ 0` that fits
/// the budget drains less than the solver's answer (Eq. 3's objective,
/// evaluated directly).
fn assert_lp_optimal_on_grid(problem: &LoadFactorProblem) {
    const STEPS: usize = 20;
    let sol = solve_load_factors(problem);
    let m = problem.relay.len();
    // Every non-increasing grid vector, as step indices.
    let mut idx = vec![STEPS; m];
    loop {
        let e: Vec<f64> = idx.iter().map(|&i| i as f64 / STEPS as f64).collect();
        let (mut prefix, mut prev, mut usage, mut drained) = (1.0, 1.0, 0.0, 0.0);
        for ((&e, &r), &c) in e.iter().zip(&problem.relay).zip(&problem.cost_us) {
            usage += prefix * e * c * problem.records;
            drained += prefix * (prev - e);
            prev = e;
            prefix *= r;
        }
        if usage <= problem.budget_us {
            assert!(
                sol.drained_fraction <= drained + 1e-9,
                "LP drains {} but grid point {e:?} drains {drained}: {problem:?}",
                sol.drained_fraction,
            );
        }
        // Next vector in reverse lexicographic order, keeping the chain.
        let Some(k) = (0..m).rev().find(|&k| idx[k] > 0) else {
            break;
        };
        idx[k] -= 1;
        for j in k + 1..m {
            idx[j] = idx[k];
        }
    }
}

/// Three hand-picked instances through the grid oracle.
#[test]
fn lp_matches_brute_force_on_small_instances() {
    let cases = [
        (vec![1.0, 0.86, 0.3], vec![0.25, 3.25, 23.0], 0.6),
        (vec![0.9, 0.5], vec![2.0, 9.0], 0.4),
        (vec![0.7, 0.7, 0.7], vec![1.0, 1.0, 1.0], 0.05),
    ];
    for (relay, cost_us, budget) in cases {
        assert_lp_optimal_on_grid(&LoadFactorProblem {
            relay,
            cost_us,
            records: 10_000.0,
            budget_us: budget * 1e6,
        });
    }
}
