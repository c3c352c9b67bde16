//! The exactness digest reads result batches where they are:
//! `ExactnessDigest::of_rows` over `[Batch]` writes each row's canonical
//! form straight from the columns, and must equal the digest of the same
//! rows as `Record`s — for every column kind, at every edge value, and
//! however the rows are batched. A live run's `results_emitted` counts the
//! rows the digest covers.

use std::sync::Arc;

use proptest::prelude::*;

use jarvis::core::calibration::Scale;
use jarvis::core::deploy::{BackendKind, Deployment, ExactnessDigest};
use jarvis::core::experiment::ScenarioSpec;
use jarvis::core::strategy::StrategyKind;
use jarvis::streamkit::batch::{Batch, Column, ColumnBuilder, DictBuilder};
use jarvis::streamkit::record::Record;
use jarvis::streamkit::schema::{DataType, Field, Schema, SchemaRef};
use jarvis::streamkit::value::Value;

/// Strings that stress `Debug` escaping: empty, quotes, backslashes,
/// control characters and multi-byte code points.
const STRINGS: [&str; 9] = [
    "",
    "plain",
    "with \"quotes\"",
    "back\\slash\\",
    "multi-byte ü 日本 🦀",
    "tab\tnew\nline",
    "nul \u{0} and bell \u{7}",
    "\"",
    "'single' \u{301}combining",
];

/// Floats at the edges of `{:.6e}`: signed zeros, NaN, infinities,
/// subnormals, 2^53 ± 1 and the extremes.
fn edge_floats() -> Vec<f64> {
    let two_53 = 9_007_199_254_740_992.0f64;
    vec![
        -0.0,
        0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        two_53 - 1.0,
        two_53,
        two_53 + 2.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1 + 0.2,
        1.234_567_5e-7,
    ]
}

fn field_schema(dtypes: &[DataType]) -> SchemaRef {
    Schema::new(
        dtypes
            .iter()
            .enumerate()
            .map(|(i, &d)| Field::new(format!("c{i}"), d))
            .collect(),
    )
}

/// A one-column batch over `column`, timestamps spread across the `i64`
/// range.
fn single(dtype: DataType, column: Column) -> Batch {
    let rows = column.len() as i64;
    Batch {
        schema: field_schema(&[dtype]),
        timestamps: (0..rows)
            .map(|r| match r % 4 {
                0 => i64::MIN,
                1 => -r,
                2 => r * 1_000_003,
                _ => i64::MAX,
            })
            .collect(),
        columns: vec![column],
    }
}

fn strings() -> Column {
    let mut b = ColumnBuilder::new(DataType::Str, STRINGS.len());
    for s in STRINGS {
        b.push_str(s).unwrap();
    }
    b.finish()
}

/// Dictionary strings, each entry used twice.
fn dict() -> Column {
    let mut b = DictBuilder::new(2 * STRINGS.len());
    for s in STRINGS.iter().chain(STRINGS.iter().rev()) {
        b.push(s);
    }
    b.finish()
}

/// `values` behind a validity mask with nulls first, in the middle, last,
/// and in a run.
fn nullable(values: Column) -> Column {
    let n = values.len();
    let valid = (0..n)
        .map(|r| !(r == 0 || r == n / 2 || r + 1 == n || (r % 5 == 3)))
        .collect();
    Column::Opt {
        valid,
        values: Box::new(values),
    }
}

/// One batch per column kind at its edge values, the nullable forms of each,
/// and one wide batch holding every kind side by side.
fn corpus() -> Vec<Batch> {
    let floats = edge_floats();
    let ints = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let uints = vec![0, 1, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
    let bools = vec![true, false, false, true];
    let mut out = vec![
        single(DataType::Bool, Column::Bool(bools.clone())),
        single(DataType::I64, Column::I64(ints.clone())),
        single(DataType::U64, Column::U64(uints.clone())),
        single(DataType::F64, Column::F64(floats.clone())),
        single(DataType::Str, strings()),
        single(DataType::Str, dict()),
        single(DataType::Bool, nullable(Column::Bool(bools))),
        single(DataType::I64, nullable(Column::I64(ints))),
        single(DataType::U64, nullable(Column::U64(uints))),
        single(DataType::F64, nullable(Column::F64(floats.clone()))),
        single(DataType::Str, nullable(strings())),
        single(DataType::Str, nullable(dict())),
        single(
            DataType::F64,
            Column::Opt {
                valid: vec![false; 3],
                values: Box::new(Column::F64(vec![0.0; 3])),
            },
        ),
    ];
    // A dictionary column whose builder saw nulls (code-0 fillers).
    let mut d = DictBuilder::new(4);
    d.push_null();
    d.push("x\"y");
    d.push_null();
    d.push("");
    out.push(single(DataType::Str, d.finish()));
    // Every kind in one row shape.
    let n = STRINGS.len();
    let wide = [
        DataType::Bool,
        DataType::I64,
        DataType::U64,
        DataType::F64,
        DataType::Str,
        DataType::Str,
        DataType::F64,
    ];
    out.push(Batch {
        schema: field_schema(&wide),
        timestamps: (0..n as i64).collect(),
        columns: vec![
            Column::Bool((0..n).map(|r| r % 2 == 0).collect()),
            Column::I64((0..n as i64).map(|r| i64::MAX - r).collect()),
            Column::U64((0..n as u64).map(|r| u64::MAX - r).collect()),
            Column::F64(floats[..n].to_vec()),
            strings(),
            nullable(dict().slice(0..n)),
            nullable(Column::F64(floats[floats.len() - n..].to_vec())),
        ],
    });
    out
}

fn records(batches: &[Batch]) -> Vec<Record> {
    batches.iter().flat_map(Batch::to_records).collect()
}

#[test]
fn batch_digest_equals_the_record_digest_for_every_column_kind() {
    let corpus = corpus();
    for batch in &corpus {
        let one = std::slice::from_ref(batch);
        assert_eq!(
            ExactnessDigest::of_rows(one),
            ExactnessDigest::of_rows(&records(one)),
            "batch {:?}",
            batch.columns
        );
    }
    let all = ExactnessDigest::of_rows(&corpus);
    assert_eq!(all, ExactnessDigest::of_rows(&records(&corpus)));
    assert_eq!(
        all.rows,
        corpus.iter().map(Batch::len).sum::<usize>() as u64
    );
}

#[test]
fn one_changed_cell_changes_the_batch_digest() {
    let base = single(DataType::F64, Column::F64(vec![1.0, 2.0, 3.0]));
    let mut moved = base.clone();
    moved.columns[0] = Column::F64(vec![1.0, 2.5, 3.0]);
    assert_ne!(
        ExactnessDigest::of_rows(std::slice::from_ref(&base)),
        ExactnessDigest::of_rows(std::slice::from_ref(&moved))
    );
    // A null is not the filler behind it.
    let mut nulled = base.clone();
    nulled.columns[0] = Column::Opt {
        valid: vec![true, false, true],
        values: Box::new(Column::F64(vec![1.0, 2.0, 3.0])),
    };
    assert_ne!(
        ExactnessDigest::of_rows(std::slice::from_ref(&base)),
        ExactnessDigest::of_rows(std::slice::from_ref(&nulled))
    );
}

/// The property tests' row shape: every physical kind, two of them
/// nullable.
fn prop_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("flag", DataType::Bool),
        Field::new("i", DataType::I64),
        Field::new("u", DataType::U64),
        Field::new("f", DataType::F64),
        Field::new("s", DataType::Str),
        Field::new("of", DataType::F64),
    ])
}

/// Draw: `(ts, bits, float pick, string pick, null pick)`.
type RowDraw = (i64, u64, u8, u8, u8);

fn row(draw: &RowDraw) -> Record {
    let &(ts, bits, fpick, spick, npick) = draw;
    let floats = edge_floats();
    let f = match usize::from(fpick) {
        i if i < floats.len() => floats[i],
        // Any bit pattern: NaN payloads, subnormals, everything.
        _ => f64::from_bits(bits.rotate_left(u32::from(fpick))),
    };
    let s = STRINGS[usize::from(spick) % STRINGS.len()];
    Record::new(
        ts,
        vec![
            Value::Bool(bits & 1 == 1),
            Value::I64(bits as i64),
            Value::U64(bits.rotate_right(7)),
            Value::F64(f),
            Value::Str(Arc::from(s)),
            if npick % 3 == 0 {
                Value::Null
            } else {
                Value::F64(f * 0.5)
            },
        ],
    )
}

/// `batches` split at `cuts` (offsets into each batch, wrapped to its
/// length), empty pieces included.
fn split(batches: &[Batch], cuts: &[usize]) -> Vec<Batch> {
    let mut out = Vec::new();
    for (i, b) in batches.iter().enumerate() {
        let at = cuts.get(i).map_or(0, |c| c % (b.len() + 1));
        out.push(b.slice(0..at));
        out.push(b.slice(at..b.len()));
    }
    out
}

proptest! {
    /// Any batching of the same rows — split, merged, reordered, dictionary
    /// encoded or not — digests like the rows as records.
    #[test]
    fn rebatching_never_changes_the_digest(
        draws in collection::vec(
            (any::<i64>(), any::<u64>(), 0u8..24, any::<u8>(), any::<u8>()),
            0..60,
        ),
        chunk in 1usize..17,
        cuts in collection::vec(0usize..64, 0..8),
        dict in any::<bool>(),
    ) {
        let recs: Vec<Record> = draws.iter().map(row).collect();
        let expected = ExactnessDigest::of_rows(&recs);
        let whole = Batch::from_records(prop_schema(), &recs).unwrap();
        let mut chunks: Vec<Batch> = whole.chunks(chunk).collect();
        if dict {
            for c in &mut chunks {
                let _ = c.dict_encode(4);
            }
        }
        prop_assert_eq!(&ExactnessDigest::of_rows(std::slice::from_ref(&whole)), &expected);
        prop_assert_eq!(&ExactnessDigest::of_rows(&chunks), &expected);
        // Splits, with empty pieces.
        let pieces = split(&chunks, &cuts);
        prop_assert_eq!(&ExactnessDigest::of_rows(&pieces), &expected);
        // Merges: adjacent pieces concatenated pairwise.
        let merged: Vec<Batch> = pieces
            .chunks(2)
            .map(|pair| Batch::concat(prop_schema(), pair))
            .collect();
        prop_assert_eq!(&ExactnessDigest::of_rows(&merged), &expected);
        // Reordering: batches reversed, rows within each reversed.
        let reordered: Vec<Batch> = merged
            .iter()
            .rev()
            .map(|b| b.gather(&(0..b.len() as u32).rev().collect::<Vec<_>>()))
            .collect();
        prop_assert_eq!(&ExactnessDigest::of_rows(&reordered), &expected);
        prop_assert_eq!(expected.rows, recs.len() as u64);
    }
}

#[test]
fn live_results_emitted_counts_the_digested_rows() {
    let report = Deployment::builder()
        .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
        .strategy(StrategyKind::Jarvis)
        .cpu_budget(0.8)
        .sources(2)
        .sp_shards(4)
        .sp_nodes(2)
        .backend(BackendKind::Live)
        .collect_results(true)
        .build()
        .expect("valid live deployment")
        .run(22)
        .expect("live run");
    let digest = report.exactness.expect("results collected");
    assert!(digest.rows > 0, "the run must produce results");
    assert_eq!(report.results_emitted, digest.rows);
}
