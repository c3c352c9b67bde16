//! Model-based property test for the flat group table in
//! `GroupAggregateOp`.
//!
//! Random interleavings of `process_batch`, `merge_state`, `on_watermark`,
//! `take_state_delta` and `checkpoint_state`, over key columns in every
//! physical shape the table encodes (wide integers, nullable columns, plain
//! / batch-local-dictionary / persistent-dictionary strings of varying
//! length, empty strings), are replayed against an ordered-map model that
//! folds rows through the scalar `AggState::update`. Every exit must equal
//! the model's **in order** — window order, then first-sight order — not
//! just as a multiset: frames on the wire and result digests depend on it.

use std::collections::BTreeMap;

use proptest::prelude::*;

use jarvis::streamkit::agg::{AggKind, AggSpec, AggState};
use jarvis::streamkit::batch::{Batch, ColumnBuilder, DictBuilder, StreamDict};
use jarvis::streamkit::ops::{
    AggRole, CostModel, EmitMode, GroupAggregateOp, GroupPartialEntry, Operator, StatePartial,
};
use jarvis::streamkit::record::Record;
use jarvis::streamkit::schema::{DataType, Field, Schema, SchemaRef};
use jarvis::streamkit::time::{Ts, TS_MAX};
use jarvis::streamkit::value::Value;
use jarvis::streamkit::window::TumblingWindow;

const SIZE: Ts = 1_000;
const NAMES: [&str; 5] = ["", "a", "ab", "tenant-with-a-rather-long-name", "é"];

/// One key part, ordered so the model can live in a `BTreeMap`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum K {
    Null,
    Int(i64),
    Str(&'static str),
}

impl K {
    fn of(v: &Value) -> K {
        match v {
            Value::Null => K::Null,
            Value::I64(x) => K::Int(*x),
            Value::Str(s) => K::Str(NAMES.iter().find(|n| ***n == **s).expect("a known name")),
            other => panic!("unexpected key value {other:?}"),
        }
    }

    fn value(&self) -> Value {
        match self {
            K::Null => Value::Null,
            K::Int(x) => Value::I64(*x),
            K::Str(s) => Value::str(s),
        }
    }
}

/// `(window, int key (5 = null), name (5 = null), value (0 = null))`.
type Row = (i64, u8, u8, u32);

fn int_key(row: &Row) -> K {
    match row.1 {
        5 => K::Null,
        // Wide and signed: no dense code space to fall back on.
        k => K::Int((i64::from(k) - 2) << 40),
    }
}

fn str_key(row: &Row) -> K {
    NAMES.get(row.2 as usize).map_or(K::Null, |n| K::Str(n))
}

fn value(row: &Row) -> Value {
    match row.3 {
        0 => Value::Null,
        v => Value::U64(u64::from(v)),
    }
}

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("k0", DataType::I64),
        Field::new("k1", DataType::Str),
        Field::new("v", DataType::U32),
    ])
}

fn aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggKind::Count, 2, "n"),
        AggSpec::new(AggKind::Sum, 2, "sum"),
        AggSpec::new(AggKind::Min, 2, "min"),
        AggSpec::new(AggKind::Max, 2, "max"),
        AggSpec::new(AggKind::Avg, 2, "avg"),
    ]
}

fn op(keys: &[usize], role: AggRole) -> GroupAggregateOp {
    GroupAggregateOp::new(
        keys.to_vec(),
        aggs(),
        &schema(),
        TumblingWindow::new(SIZE),
        EmitMode::OnWindowClose,
        role,
        CostModel::fixed(1.0),
    )
}

/// Builds the batch for `rows`, the string column stored per `layout`:
/// 0 plain, 1 batch-local dictionary, 2 persistent dictionary. Columns are
/// `Opt`-wrapped exactly when a row is null.
fn batch(layout: u8, stream: &mut StreamDict, rows: &[Row]) -> Batch {
    let mut ints = ColumnBuilder::new(DataType::I64, rows.len());
    let mut plain = ColumnBuilder::new(DataType::Str, rows.len());
    let mut local = DictBuilder::new(rows.len());
    let mut vals = ColumnBuilder::new(DataType::U32, rows.len());
    for row in rows {
        ints.push(&int_key(row).value()).expect("int key");
        match str_key(row) {
            K::Str(s) => {
                plain.push_str(s).expect("string key");
                local.push(s);
            }
            _ => {
                plain.push_null();
                local.push_null();
            }
        }
        vals.push(&value(row)).expect("value");
    }
    let plain = plain.finish();
    let names = match layout {
        0 => plain,
        1 => local.finish(),
        _ => plain
            .dict_encode_with(stream, 64)
            .expect("five names fit the page"),
    };
    Batch {
        schema: schema(),
        timestamps: rows.iter().map(|r| r.0 * SIZE + 1).collect(),
        columns: vec![ints.finish(), names, vals.finish()],
    }
}

/// What the operator must hold: states by `(window start, key)`, each with
/// the sequence number of its first sight.
#[derive(Default)]
struct Model {
    groups: BTreeMap<(Ts, Vec<K>), (u64, Vec<AggState>)>,
    sights: u64,
}

impl Model {
    fn states(&mut self, ws: Ts, key: Vec<K>) -> &mut Vec<AggState> {
        let sights = &mut self.sights;
        let entry = self.groups.entry((ws, key)).or_insert_with(|| {
            *sights += 1;
            (*sights, aggs().iter().map(AggSpec::init).collect())
        });
        &mut entry.1
    }

    fn fold(&mut self, keys: &[usize], rows: &[Row]) {
        for row in rows {
            let parts = [int_key(row), str_key(row)];
            let key = keys.iter().map(|&k| parts[k].clone()).collect();
            for state in self.states(row.0 * SIZE, key) {
                state.update(&value(row));
            }
        }
    }

    fn merge(&mut self, entries: &[GroupPartialEntry]) {
        for e in entries {
            let key = e.key.iter().map(K::of).collect();
            for (state, inc) in self.states(e.window_start, key).iter_mut().zip(&e.states) {
                state.merge(inc);
            }
        }
    }

    /// Removes and returns the groups of windows `closed` accepts, in window
    /// order then first-sight order.
    fn take(&mut self, closed: impl Fn(Ts) -> bool) -> Vec<GroupPartialEntry> {
        let mut taken: Vec<(Ts, u64, Vec<K>, Vec<AggState>)> = Vec::new();
        self.groups.retain(|(ws, key), (seq, states)| {
            if closed(*ws) {
                taken.push((*ws, *seq, key.clone(), std::mem::take(states)));
            }
            !closed(*ws)
        });
        taken.sort_by_key(|g| (g.0, g.1));
        taken
            .into_iter()
            .map(|(window_start, _, key, states)| GroupPartialEntry {
                window_start,
                key: key.iter().map(K::value).collect(),
                states,
            })
            .collect()
    }

    fn snapshot(&self) -> Vec<GroupPartialEntry> {
        let mut copy = Model {
            groups: self.groups.clone(),
            sights: self.sights,
        };
        copy.take(|_| true)
    }
}

/// The result rows the operator must emit for `entries`.
fn results(entries: &[GroupPartialEntry]) -> Vec<Record> {
    entries
        .iter()
        .map(|e| {
            let mut values = vec![Value::I64(e.window_start)];
            values.extend(e.key.iter().cloned());
            values.extend(e.states.iter().map(AggState::finalize));
            Record::new(e.window_start + SIZE, values)
        })
        .collect()
}

fn entries(state: Option<StatePartial>) -> Vec<GroupPartialEntry> {
    state.map_or_else(Vec::new, |StatePartial::Group(entries)| entries)
}

proptest! {
    #[test]
    fn every_exit_matches_the_ordered_model(
        shape in (0u8..3, 0u8..3),
        steps in collection::vec(
            (0u8..5, collection::vec((0i64..4, 0u8..6, 0u8..6, 0u32..50), 1..30), 0i64..3),
            1..16,
        ),
    ) {
        let (layout, keyset) = shape;
        let keys: &[usize] = [&[0, 1][..], &[1], &[0]][keyset as usize];
        let window = TumblingWindow::new(SIZE);
        let mut stream = StreamDict::new();
        let (mut fin, mut fin_model) = (op(keys, AggRole::Final), Model::default());
        let (mut part, mut part_model) = (op(keys, AggRole::Partial), Model::default());
        let mut sink = Vec::new();
        let mut wm: Ts = 0;
        for (kind, rows, advance) in &steps {
            match kind {
                0 => {
                    fin.process_batch(batch(layout, &mut stream, rows), &mut sink);
                    fin_model.fold(keys, rows);
                }
                1 => {
                    part.process_batch(batch(layout, &mut stream, rows), &mut sink);
                    part_model.fold(keys, rows);
                }
                2 => {
                    // Ship: the partial twin hands over everything it holds.
                    let shipped = entries(part.take_state_delta());
                    prop_assert_eq!(&shipped, &part_model.take(|_| true));
                    prop_assert_eq!(part.group_count(), 0);
                    fin_model.merge(&shipped);
                    fin.merge_state(StatePartial::Group(shipped));
                }
                3 => {
                    wm += advance * SIZE;
                    let mut out = Vec::new();
                    fin.on_watermark(wm, &mut out);
                    let got: Vec<Record> = out.iter().flat_map(Batch::to_records).collect();
                    let closed = fin_model.take(|ws| window.is_closed(ws, wm));
                    prop_assert_eq!(got, results(&closed));
                }
                _ => {
                    prop_assert_eq!(entries(fin.checkpoint_state()), fin_model.snapshot());
                    prop_assert_eq!(entries(part.checkpoint_state()), part_model.snapshot());
                }
            }
            prop_assert_eq!(fin.group_count(), fin_model.groups.len());
            prop_assert_eq!(part.group_count(), part_model.groups.len());
            prop_assert_eq!(fin.state_bytes() == 0, fin_model.groups.is_empty());
        }
        prop_assert!(sink.is_empty(), "aggregation emits only on watermarks");
        let mut out = Vec::new();
        fin.on_watermark(TS_MAX, &mut out);
        let got: Vec<Record> = out.iter().flat_map(Batch::to_records).collect();
        prop_assert_eq!(got, results(&fin_model.take(|_| true)));
        prop_assert_eq!(fin.group_count(), 0);
    }
}
