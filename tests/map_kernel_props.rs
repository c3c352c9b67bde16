//! The map operator's byte kernels against the record-at-a-time oracle.
//!
//! `MapOp` runs `TrimLower`, `ParseJobStats` and `WidthBucket` on a column's
//! bytes and values; `MapFn::apply` is their definition. For arbitrary lines
//! built from text fragments — non-ASCII and Unicode whitespace (U+0085,
//! U+00A0), `İ` and a final `Σ` whose lowercase forms change length, a key
//! whose first occurrence lacks `=`, `;` delimiters — in plain, dictionary
//! and nullable columns, with ASCII and non-ASCII rows mixed in one batch,
//! the operator must produce exactly the rows `apply` does.

use proptest::prelude::*;

use jarvis::streamkit::batch::{Batch, Column};
use jarvis::streamkit::ops::{CostModel, MapFn, MapOp, Operator};
use jarvis::streamkit::record::Record;
use jarvis::streamkit::schema::{DataType, Field, Schema, SchemaRef};
use jarvis::streamkit::value::Value;

/// Pieces lines are glued from. Index `FRAGMENTS.len()` makes a row null
/// when it comes first and adds nothing elsewhere.
const FRAGMENTS: [&str; 40] = [
    "tenant name",
    "Tenant Name",
    "TENANT NAME",
    "cpu util",
    "CPU Util",
    "job running time",
    "memory util",
    "=",
    "=",
    ",",
    ";",
    " ",
    "  ",
    "\t",
    "\u{0B}",
    "\u{85}",
    "\u{a0}",
    "\u{2028}",
    "\u{3000}",
    "İ",
    "ΟΔΟΣ",
    "Σ",
    "ß",
    "é",
    "日本",
    "tenant-",
    "Acme",
    "7",
    "62.5",
    " 3.25 ",
    "-0.0",
    "1e3",
    "NaN",
    "inf",
    "x",
    "level=INFO job=12 ",
    ", host=h7",
    "cpu util x ",
    "tenant name=tenant-5, cpu util=12.5",
    "memory util=99.9; ",
];

fn line_schema() -> SchemaRef {
    Schema::new(vec![Field::new("line", DataType::Str)])
}

/// One row per fragment list: the fragments glued, or a null. With
/// `ascii`, non-ASCII fragments are left out, so whole batches take the
/// operator's all-ASCII path.
fn records(rows: &[Vec<usize>], ascii: bool) -> Vec<Record> {
    rows.iter()
        .enumerate()
        .map(|(i, parts)| {
            let value = if parts.first() == Some(&FRAGMENTS.len()) {
                Value::Null
            } else {
                Value::str(
                    parts
                        .iter()
                        .filter_map(|&p| FRAGMENTS.get(p).copied())
                        .filter(|f| !ascii || f.is_ascii())
                        .collect::<String>(),
                )
            };
            Record::new(i as i64, vec![value])
        })
        .collect()
}

/// The same rows as a plain string column (`Opt` when a row is null) and
/// as a dictionary column.
fn batches(recs: &[Record]) -> [Batch; 2] {
    let plain = Batch::from_records(line_schema(), recs).unwrap();
    let mut dict = plain.clone();
    assert!(recs.iter().all(|r| r.values[0].is_null()) || dict.dict_encode(usize::MAX));
    [plain, dict]
}

fn operator(f: &MapFn, input: &SchemaRef) -> MapOp {
    MapOp::new(
        f.clone(),
        f.output_schema(input).unwrap(),
        CostModel::fixed(1.0),
    )
}

/// `op` over each batch in turn (persistent state carries across them).
fn run(op: &mut MapOp, inputs: Vec<Batch>) -> Vec<Batch> {
    let mut out = Vec::new();
    for batch in inputs {
        op.process_batch(batch, &mut out);
    }
    out
}

/// Records compared by their printed form, so a NaN stat equals itself.
fn shown(recs: impl IntoIterator<Item = Record>) -> Vec<String> {
    recs.into_iter().map(|r| format!("{r:?}")).collect()
}

fn rows_of(batches: &[Batch]) -> Vec<String> {
    shown(batches.iter().flat_map(Batch::to_records))
}

fn parse_fn() -> MapFn {
    MapFn::ParseJobStats {
        col: 0,
        stats: ["job running time", "cpu util", "memory util", "CPU Util"]
            .iter()
            .map(ToString::to_string)
            .collect(),
    }
}

fn bucket_fn(col: usize) -> MapFn {
    MapFn::WidthBucket {
        col,
        lo: 0.0,
        hi: 100.0,
        buckets: 10,
    }
}

proptest! {
    #[test]
    fn text_kernels_equal_the_row_path(
        first in collection::vec(collection::vec(0usize..FRAGMENTS.len() + 1, 0..14), 1..24),
        second in collection::vec(collection::vec(0usize..FRAGMENTS.len() + 1, 0..14), 1..24),
        ascii in any::<bool>(),
    ) {
        let (first, second) = (records(&first, ascii), records(&second, ascii));
        let lower = MapFn::TrimLower(0);
        let parse = parse_fn();
        let bucket = bucket_fn(2);
        for layout in 0..2 {
            let inputs = vec![
                batches(&first)[layout].clone(),
                batches(&second)[layout].clone(),
            ];
            let row_lowered: Vec<Record> = first
                .iter()
                .chain(&second)
                .filter_map(|r| lower.apply(r))
                .collect();
            let lowered = run(&mut operator(&lower, &line_schema()), inputs.clone());
            prop_assert_eq!(rows_of(&lowered), shown(row_lowered.clone()), "TrimLower, layout {}", layout);

            // ParseJobStats on the raw lines and on the lowered ones, each
            // through one operator across both batches.
            for (input, row_input) in [
                (inputs, first.iter().chain(&second).cloned().collect::<Vec<_>>()),
                (lowered, row_lowered),
            ] {
                let parsed = run(&mut operator(&parse, &line_schema()), input);
                let row_parsed: Vec<Record> =
                    row_input.iter().filter_map(|r| parse.apply(r)).collect();
                prop_assert_eq!(rows_of(&parsed), shown(row_parsed.clone()), "ParseJobStats, layout {}", layout);
                for batch in &parsed {
                    prop_assert!(matches!(batch.columns[0], Column::Dict { .. }));
                }
                let schema = parse.output_schema(&line_schema()).unwrap();
                let bucketed = run(&mut operator(&bucket, &schema), parsed);
                let row_bucketed = row_parsed.iter().filter_map(|r| bucket.apply(r));
                prop_assert_eq!(rows_of(&bucketed), shown(row_bucketed), "WidthBucket, layout {}", layout);
            }
        }
    }

    #[test]
    fn width_bucket_kernel_equals_the_row_path(
        picks in collection::vec(0usize..12, 1..40),
    ) {
        const VALUES: [f64; 11] = [
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 0.0, 9.99, 10.0, 55.5, 99.99,
            100.0, 1e300,
        ];
        let schema = Schema::new(vec![
            Field::new("tag", DataType::Str),
            Field::new("stat", DataType::F64),
        ]);
        let recs: Vec<Record> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let v = VALUES.get(p).map_or(Value::Null, |v| Value::F64(*v));
                Record::new(i as i64, vec![Value::str(format!("r{i}")), v])
            })
            .collect();
        let f = bucket_fn(1);
        let batch = Batch::from_records(schema.clone(), &recs).unwrap();
        let out = run(&mut operator(&f, &schema), vec![batch]);
        let row = recs.iter().filter_map(|r| f.apply(r));
        prop_assert_eq!(rows_of(&out), shown(row));
    }
}
