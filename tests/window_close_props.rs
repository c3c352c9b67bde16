//! Property tests for window lifetime in `GroupAggregateOp`.
//!
//! The operator keeps one group table per open window and closes a window
//! by taking its table. Whatever the key layout (persistent dictionary
//! codes, small and wide integers, plain strings — all resolved through the
//! byte-keyed index), however batches straddle windows, and wherever
//! watermarks and `merge_state` calls interleave,
//! the rows it emits must add up to what one `TS_MAX` drain of the same
//! input emits — and a watermark that closes nothing must leave the state
//! exactly as it found it.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use jarvis::streamkit::agg::{AggKind, AggSpec};
use jarvis::streamkit::batch::{Batch, Column, StreamDict};
use jarvis::streamkit::ops::{AggRole, CostModel, EmitMode, GroupAggregateOp, Operator};
use jarvis::streamkit::schema::{DataType, Field, Schema, SchemaRef};
use jarvis::streamkit::time::{Ts, TS_MAX};
use jarvis::streamkit::value::Value;
use jarvis::streamkit::window::TumblingWindow;

const SIZE: Ts = 1_000;

/// `(window index, offset in window, key, value)`.
type Row = (i64, i64, u8, u32);

/// How the key column is physically laid out.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// Persistent dictionary codes (fragments kept across batches).
    Dict,
    /// Small integers.
    BoundedInt,
    /// Integers 2^40 apart.
    WideInt,
    /// Plain strings.
    Str,
}

fn schema(layout: Layout) -> SchemaRef {
    let key = match layout {
        Layout::Dict | Layout::Str => DataType::Str,
        Layout::BoundedInt | Layout::WideInt => DataType::I64,
    };
    Schema::new(vec![Field::new("k", key), Field::new("v", DataType::U32)])
}

fn op(layout: Layout, role: AggRole) -> GroupAggregateOp {
    GroupAggregateOp::new(
        vec![0],
        vec![
            AggSpec::new(AggKind::Count, 1, "n"),
            AggSpec::new(AggKind::Sum, 1, "sum"),
            AggSpec::new(AggKind::Min, 1, "min"),
            AggSpec::new(AggKind::Max, 1, "max"),
        ],
        &schema(layout),
        TumblingWindow::new(SIZE),
        EmitMode::OnWindowClose,
        role,
        CostModel::fixed(1.0),
    )
}

/// Builds the batch for `rows` in `layout`; dictionary keys are interned
/// on first sight, so the page grows across batches.
fn batch(layout: Layout, dict: &mut StreamDict, rows: &[Row]) -> Batch {
    let name = |k: u8| format!("tenant-{k}");
    let keys = match layout {
        Layout::Dict => {
            let codes = rows.iter().map(|r| dict.intern(&name(r.2))).collect();
            Column::Dict {
                codes,
                dict: dict.snapshot(),
            }
        }
        Layout::BoundedInt => Column::I64(rows.iter().map(|r| i64::from(r.2)).collect()),
        Layout::WideInt => Column::I64(rows.iter().map(|r| i64::from(r.2) << 40).collect()),
        Layout::Str => {
            let mut b = jarvis::streamkit::batch::ColumnBuilder::new(DataType::Str, rows.len());
            for r in rows {
                b.push_str(&name(r.2)).expect("string column");
            }
            b.finish()
        }
    };
    Batch {
        schema: schema(layout),
        timestamps: rows.iter().map(|r| r.0 * SIZE + r.1).collect(),
        columns: vec![
            keys,
            Column::U64(rows.iter().map(|r| u64::from(r.3)).collect()),
        ],
    }
}

/// `(count, sum, min, max)` per `(window start, key)`, folding rows that
/// name the same group — late input re-opens a window that already
/// emitted, so its group legitimately comes out in two pieces.
type Folded = BTreeMap<(i64, String), (u64, f64, f64, f64)>;

fn fold(out: &[Batch]) -> (Folded, usize) {
    let mut folded = Folded::new();
    let mut rows = 0;
    for rec in out.iter().flat_map(Batch::to_records) {
        rows += 1;
        let num = |v: &Value| v.as_f64().expect("numeric aggregate");
        let Value::I64(ws) = rec.values[0] else {
            panic!("window_start is I64");
        };
        assert_eq!(rec.ts, ws + SIZE, "results are stamped with the window end");
        let Value::U64(n) = rec.values[2] else {
            panic!("count is U64");
        };
        let piece = (
            n,
            num(&rec.values[3]),
            num(&rec.values[4]),
            num(&rec.values[5]),
        );
        folded
            .entry((ws, format!("{:?}", rec.values[1])))
            .and_modify(|g| {
                *g = (
                    g.0 + piece.0,
                    g.1 + piece.1,
                    g.2.min(piece.2),
                    g.3.max(piece.3),
                );
            })
            .or_insert(piece);
    }
    (folded, rows)
}

fn step_strategy() -> impl Strategy<Value = (u8, Vec<Row>, i64)> {
    (
        0u8..3,
        collection::vec((0i64..12, 0i64..SIZE, 0u8..6, 0u32..100), 1..40),
        0i64..4,
    )
}

proptest! {
    /// Any interleaving of batches, monotone watermarks and state merges
    /// emits, in total, what a single final drain emits.
    #[test]
    fn watermark_interleavings_emit_what_one_final_drain_emits(
        layout in 0u8..4,
        steps in collection::vec(step_strategy(), 1..14),
    ) {
        let layout = [Layout::Dict, Layout::BoundedInt, Layout::WideInt, Layout::Str][layout as usize];
        let mut dict = StreamDict::new();
        let mut tested = op(layout, AggRole::Final);
        let mut reference = op(layout, AggRole::Final);
        let window = TumblingWindow::new(SIZE);
        let mut sink = Vec::new();
        let mut emitted = Vec::new();
        let mut wm: Ts = 0;
        // Windows holding state in `tested`, and whether anything arrived
        // for a window the watermark had already closed.
        let mut open: BTreeSet<Ts> = BTreeSet::new();
        let mut late = false;
        for (kind, rows, advance) in &steps {
            match kind {
                0 => {
                    // Up to 12 windows in one unsorted batch.
                    let b = batch(layout, &mut dict, rows);
                    tested.process_batch(b.clone(), &mut sink);
                    reference.process_batch(b, &mut sink);
                }
                1 => {
                    // State shipped by a partial-role twin, possibly for
                    // windows that closed long ago.
                    let mut twin = op(layout, AggRole::Partial);
                    twin.process_batch(batch(layout, &mut dict, rows), &mut sink);
                    let delta = twin.take_state_delta().expect("the twin saw rows");
                    tested.merge_state(delta.clone());
                    reference.merge_state(delta);
                }
                _ => {
                    wm += advance * SIZE / 2;
                    let before = tested.group_count();
                    let closing = open.iter().filter(|&&ws| window.is_closed(ws, wm)).count();
                    let mut out = Vec::new();
                    tested.on_watermark(wm, &mut out);
                    if closing == 0 {
                        prop_assert!(out.is_empty(), "nothing closed, nothing emitted");
                        prop_assert_eq!(tested.group_count(), before);
                    } else {
                        prop_assert!(!out.is_empty());
                    }
                    open.retain(|&ws| !window.is_closed(ws, wm));
                    prop_assert_eq!(tested.open_windows(), open.len());
                    emitted.extend(out);
                    continue;
                }
            }
            for r in rows {
                let ws = r.0 * SIZE;
                late |= window.is_closed(ws, wm);
                open.insert(ws);
            }
        }
        prop_assert!(sink.is_empty(), "aggregation emits only on watermarks");
        tested.on_watermark(TS_MAX, &mut emitted);
        prop_assert_eq!(tested.group_count(), 0);
        let mut expected = Vec::new();
        reference.on_watermark(TS_MAX, &mut expected);

        let (got, got_rows) = fold(&emitted);
        let (want, want_rows) = fold(&expected);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(want_rows, want.len(), "one drain emits each group once");
        if !late {
            prop_assert_eq!(got_rows, want_rows, "without late input no group is split");
        }
    }
}
