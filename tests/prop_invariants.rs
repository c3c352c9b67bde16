//! Property-based tests over the system's core invariants (DESIGN.md §7).

use proptest::prelude::*;

use jarvis::core::proxy::{ControlProxy, Route};
use jarvis::lp::loadfactor::{solve_load_factors, LoadFactorProblem};
use jarvis::streamkit::agg::{AggKind, AggSpec, AggState};
use jarvis::streamkit::batch::Batch;
use jarvis::streamkit::encode::{decode_batch, encode_batch};
use jarvis::streamkit::record::Record;
use jarvis::streamkit::schema::{DataType, Field, Schema};
use jarvis::streamkit::value::Value;
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
        costs in proptest::collection::vec(0.01f64..50.0, 1..6),
        relays in proptest::collection::vec(0.05f64..1.0, 1..6),
        budget_frac in 0.0f64..1.5,
    ) {
        let m = costs.len().min(relays.len());
        let problem = LoadFactorProblem {
            relay: relays[..m].to_vec(),
            cost_us: costs[..m].to_vec(),
            records: 10_000.0,
            budget_us: budget_frac * 1e6,
        };
        let sol = solve_load_factors(&problem).unwrap();
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
                let key = vec![shard.columns[0].value(row), shard.columns[1].value(row)];
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

/// The LP must never be beaten by brute-force grid search over quantised
/// load-factor vectors (small instances, coarse grid).
#[test]
fn lp_matches_brute_force_on_small_instances() {
    use jarvis::lp::loadfactor::LoadFactorProblem;
    let cases = [
        (vec![1.0, 0.86, 0.3], vec![0.25, 3.25, 23.0], 0.6),
        (vec![0.9, 0.5], vec![2.0, 9.0], 0.4),
        (vec![0.7, 0.7, 0.7], vec![1.0, 1.0, 1.0], 0.05),
    ];
    for (relay, cost, budget) in cases {
        let problem = LoadFactorProblem {
            relay: relay.clone(),
            cost_us: cost.clone(),
            records: 10_000.0,
            budget_us: budget * 1e6,
        };
        let sol = solve_load_factors(&problem).unwrap();

        // Brute force over a 21-point grid per effective factor.
        let m = relay.len();
        let steps = 21usize;
        let mut best = f64::INFINITY;
        let mut idx = vec![0usize; m];
        loop {
            let e: Vec<f64> = idx.iter().map(|&i| i as f64 / (steps - 1) as f64).collect();
            let chain_ok = e.windows(2).all(|w| w[1] <= w[0] + 1e-12);
            if chain_ok {
                let mut relay_prefix = 1.0;
                let mut usage = 0.0;
                let mut drained = 0.0;
                let mut prev = 1.0;
                for i in 0..m {
                    usage += relay_prefix * e[i] * cost[i] * 10_000.0;
                    drained += relay_prefix * (prev - e[i]);
                    prev = e[i];
                    relay_prefix *= relay[i];
                }
                if usage <= budget * 1e6 + 1e-6 {
                    best = best.min(drained);
                }
            }
            // Advance the mixed-radix counter.
            let mut k = 0;
            loop {
                idx[k] += 1;
                if idx[k] < steps {
                    break;
                }
                idx[k] = 0;
                k += 1;
                if k == m {
                    break;
                }
            }
            if k == m {
                break;
            }
        }
        assert!(
            sol.drained_fraction <= best + 0.01,
            "LP {} must be within grid resolution of brute force {}",
            sol.drained_fraction,
            best
        );
    }
}
