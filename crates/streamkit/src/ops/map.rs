//! Map (user-defined transformation) operator.
//!
//! The paper's text query (Listing 3) uses three maps: normalise the log line,
//! parse it into a `JobStats` object, and bucketise the statistic. Map
//! functions are described as data (`MapFn`) so the optimiser can reason about
//! them (schema effects, fusion, filter pushdown) — with a `Custom` escape
//! hatch for arbitrary user logic.
//!
//! [`MapFn::apply`] is the record-at-a-time definition of every function.
//! The operator runs the text functions on a column's bytes — no `String`
//! per row, no substring searcher per key — and agrees with `apply` row for
//! row.

use std::sync::Arc;

use bytes::Bytes;

use crate::batch::{Batch, Column, StreamDict};
use crate::error::{Error, Result};
use crate::ops::{CostModel, OpKind, Operator};
use crate::record::Record;
use crate::schema::{DataType, Field, Schema, SchemaRef};
use crate::value::Value;

/// A describable record transformation.
#[derive(Clone)]
pub enum MapFn {
    /// Trim + lowercase a string column in place (schema preserving).
    TrimLower(usize),
    /// Parse a `key=value`-style log line into `(tenant, stat_name, stat)`.
    /// Lines are expected to contain `tenant name=<t>` and one
    /// `<stat name>=<number>` pair; anything else yields no output.
    ParseJobStats {
        /// Column holding the raw log line.
        col: usize,
        /// Recognised stat names (e.g. "job running time", "cpu util").
        stats: Vec<String>,
    },
    /// Replace a numeric column with its histogram bucket index:
    /// `width_bucket(v, lo, hi, buckets)` (schema type becomes I64). Rows
    /// without a number — non-numeric, null or NaN — are dropped.
    WidthBucket {
        /// Column to bucketise.
        col: usize,
        /// Range lower bound.
        lo: f64,
        /// Range upper bound.
        hi: f64,
        /// Number of buckets.
        buckets: u32,
    },
    /// Arbitrary user transformation with an explicit output schema.
    Custom {
        /// Name for plans/traces.
        name: &'static str,
        /// Output schema.
        schema: SchemaRef,
        /// The transformation; returning `None` drops the record.
        #[allow(clippy::type_complexity)]
        f: Arc<dyn Fn(&Record) -> Option<Record> + Send + Sync>,
    },
}

impl std::fmt::Debug for MapFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapFn::TrimLower(c) => write!(f, "TrimLower({c})"),
            MapFn::ParseJobStats { col, .. } => write!(f, "ParseJobStats({col})"),
            MapFn::WidthBucket {
                col,
                lo,
                hi,
                buckets,
            } => {
                write!(f, "WidthBucket({col}, {lo}, {hi}, {buckets})")
            }
            MapFn::Custom { name, .. } => write!(f, "Custom({name})"),
        }
    }
}

impl MapFn {
    /// Output schema given the input schema.
    pub fn output_schema(&self, input: &SchemaRef) -> Result<SchemaRef> {
        match self {
            MapFn::TrimLower(col) => {
                let field = input.field(*col)?;
                if field.dtype != DataType::Str {
                    return Err(Error::TypeMismatch {
                        expected: "str",
                        got: "non-str",
                    });
                }
                Ok(input.clone())
            }
            MapFn::ParseJobStats { col, .. } => {
                input.field(*col)?;
                Ok(Schema::with_overhead(
                    vec![
                        Field::new("tenant", DataType::Str),
                        Field::new("stat_name", DataType::Str),
                        Field::new("stat", DataType::F64),
                    ],
                    input.record_overhead(),
                ))
            }
            MapFn::WidthBucket { col, .. } => {
                let mut fields = input.fields().to_vec();
                let field = fields.get_mut(*col).ok_or(Error::ColumnIndex {
                    index: *col,
                    width: input.width(),
                })?;
                field.dtype = DataType::I64;
                Ok(Schema::with_overhead(fields, input.record_overhead()))
            }
            MapFn::Custom { schema, .. } => Ok(schema.clone()),
        }
    }

    /// True when the function preserves the input schema and only rewrites
    /// the listed columns — the condition for pushing a filter below it.
    pub fn schema_preserving_rewrites(&self) -> Option<Vec<usize>> {
        match self {
            MapFn::TrimLower(c) => Some(vec![*c]),
            MapFn::WidthBucket { .. } => None, // changes a column's type
            _ => None,
        }
    }

    /// Applies the transformation.
    pub fn apply(&self, rec: &Record) -> Option<Record> {
        match self {
            MapFn::TrimLower(col) => {
                let mut rec = rec.clone();
                if let Some(Value::Str(s)) = rec.values.get(*col) {
                    let cleaned = s.trim().to_lowercase();
                    rec.values[*col] = Value::str(cleaned);
                }
                Some(rec)
            }
            MapFn::ParseJobStats { col, stats } => {
                let line = rec.values.get(*col)?.as_str()?;
                let tenant = extract_kv(line, "tenant name")?;
                for stat in stats {
                    if let Some(v) = extract_kv(line, stat) {
                        let value: f64 = v.trim().parse().ok()?;
                        return Some(Record::new(
                            rec.ts,
                            vec![
                                Value::str(tenant.trim()),
                                Value::str(stat.as_str()),
                                Value::F64(value),
                            ],
                        ));
                    }
                }
                None
            }
            MapFn::WidthBucket {
                col,
                lo,
                hi,
                buckets,
            } => {
                let mut rec = rec.clone();
                let v = rec.values.get(*col)?.as_f64().filter(|v| !v.is_nan())?;
                let b = width_bucket(v, *lo, *hi, *buckets);
                rec.values[*col] = Value::I64(b);
                Some(rec)
            }
            MapFn::Custom { f, .. } => f(rec),
        }
    }
}

/// SQL-style `width_bucket`: 0 below range, `buckets+1` above, else 1-based
/// bucket index. NaN belongs to no bucket; [`MapFn::WidthBucket`] drops a
/// NaN row before it gets here.
pub fn width_bucket(v: f64, lo: f64, hi: f64, buckets: u32) -> i64 {
    if v < lo {
        0
    } else if v >= hi {
        i64::from(buckets) + 1
    } else {
        ((v - lo) / (hi - lo) * f64::from(buckets)) as i64 + 1
    }
}

/// Extracts the value following `key=` up to the next recognised delimiter.
fn extract_kv<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = line.get(start..)?.strip_prefix('=')?;
    let end = rest.find([',', ';']).unwrap_or(rest.len());
    // A value runs until a delimiter; embedded spaces are allowed for tenant
    // names but numeric stats are parsed with trim.
    Some(&rest[..end])
}

/// [`extract_kv`] on bytes, with the same first-occurrence rule: only the
/// key's first occurrence counts, and it must be followed by `=`.
fn extract_kv_bytes<'a>(line: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    let start = find_bytes(line, key)? + key.len();
    let rest = line[start..].strip_prefix(b"=")?;
    let end = rest
        .iter()
        .position(|&b| b == b',' || b == b';')
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Offset of the first occurrence of `needle` in `hay`. For UTF-8 inputs
/// this is `str::find`'s answer (a UTF-8 needle can only match at a char
/// boundary), without building a searcher per call.
pub(crate) fn find_bytes(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let Some((&first, tail)) = needle.split_first() else {
        return Some(0);
    };
    let last = hay.len().checked_sub(needle.len())?;
    let mut at = 0;
    while at <= last {
        at += hay[at..=last].iter().position(|&b| b == first)?;
        if hay[at + 1..at + needle.len()] == *tail {
            return Some(at);
        }
        at += 1;
    }
    None
}

/// The bytes of a string row; `None` for a null or a non-string column.
pub(crate) fn row_bytes(col: &Column, row: usize) -> Option<&[u8]> {
    match col {
        Column::Str { offsets, data } => {
            Some(&data[offsets[row] as usize..offsets[row + 1] as usize])
        }
        Column::Dict { codes, dict } => Some(dict.get(codes[row]).as_bytes()),
        Column::Opt { valid, values } if valid[row] => row_bytes(values, row),
        _ => None,
    }
}

/// True for a column of strings, nullable or not.
fn is_str_column(col: &Column) -> bool {
    match col {
        Column::Str { .. } | Column::Dict { .. } => true,
        Column::Opt { values, .. } => is_str_column(values),
        _ => false,
    }
}

/// Whitespace as `char::is_whitespace` sees it, within ASCII (vertical tab
/// included, unlike `u8::is_ascii_whitespace`).
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// `row`'s bounds without its leading and trailing ASCII whitespace.
fn ascii_trimmed(row: &[u8]) -> (usize, usize) {
    let start = row
        .iter()
        .position(|&b| !is_ascii_space(b))
        .unwrap_or(row.len());
    let stop = row
        .iter()
        .rposition(|&b| !is_ascii_space(b))
        .map_or(start, |p| p + 1);
    (start, stop)
}

/// Appends `line` trimmed and lowercased — `apply`'s `trim().to_lowercase()`
/// — to `out`. An ASCII line is handled as bytes; any other goes through
/// `str`, since Unicode case mapping can change a string's length.
fn push_trim_lower(out: &mut Vec<u8>, line: &[u8]) {
    if line.is_ascii() {
        let (start, stop) = ascii_trimmed(line);
        out.extend(line[start..stop].iter().map(u8::to_ascii_lowercase));
    } else if let Ok(s) = std::str::from_utf8(line) {
        out.extend_from_slice(s.trim().to_lowercase().as_bytes());
    }
}

/// [`MapFn::TrimLower`] over a batch. A non-string column is left as it is.
fn trim_lower(mut batch: Batch, schema: &SchemaRef, col: usize) -> Batch {
    batch.schema = schema.clone();
    let column = &mut batch.columns[col];
    if is_str_column(column) {
        *column = trim_lower_rows(column);
    }
    batch
}

/// A string column trimmed and lowercased row by row into one output
/// buffer; nulls stay null.
fn trim_lower_rows(source: &Column) -> Column {
    let n = source.len();
    let mut data = Vec::with_capacity(match source {
        Column::Str { data, .. } => data.len(),
        _ => 0,
    });
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    // Filled in at the first null, so a column without one allocates none.
    let mut valid = Vec::new();
    for row in 0..n {
        if let Some(line) = row_bytes(source, row) {
            push_trim_lower(&mut data, line);
        } else {
            if valid.is_empty() {
                valid = vec![true; n];
            }
            valid[row] = false;
        }
        offsets.push(data.len() as u32);
    }
    let dense = Column::Str {
        offsets,
        data: Bytes::from(data),
    };
    if valid.is_empty() {
        dense
    } else {
        Column::Opt {
            valid,
            values: Box::new(dense),
        }
    }
}

/// [`MapFn::ParseJobStats`] on one line's bytes: the trimmed tenant, the
/// index of the first stat the line carries, and that stat's value. `None`
/// exactly where `apply` drops the line. The line is a column's row, so it
/// is UTF-8, and every cut below falls on a char boundary.
fn parse_job_stats<'a>(line: &'a [u8], stats: &[String]) -> Option<(&'a str, usize, f64)> {
    let tenant = extract_kv_bytes(line, b"tenant name")?;
    let (stat, value) = stats
        .iter()
        .enumerate()
        .find_map(|(i, stat)| Some((i, extract_kv_bytes(line, stat.as_bytes())?)))?;
    Some((
        std::str::from_utf8(tenant).ok()?.trim(),
        stat,
        parse_stat(value)?,
    ))
}

/// `value.trim().parse::<f64>()` on a field's bytes.
fn parse_stat(value: &[u8]) -> Option<f64> {
    std::str::from_utf8(value).ok()?.trim().parse().ok()
}

/// [`MapFn::WidthBucket`] over a batch: each value is read once, and the
/// batch is only re-gathered when a row has no number to bucket.
fn width_buckets(
    mut batch: Batch,
    schema: &SchemaRef,
    col: usize,
    (lo, hi, buckets): (f64, f64, u32),
) -> Option<Batch> {
    let source = &batch.columns[col];
    let n = source.len();
    let mut bucketed: Vec<i64> = Vec::with_capacity(n);
    let mut keep = Vec::with_capacity(n);
    for row in 0..n {
        let value = source.f64_at(row).filter(|v| !v.is_nan());
        if let Some(v) = value {
            bucketed.push(width_bucket(v, lo, hi, buckets));
        }
        keep.push(value.is_some());
    }
    if bucketed.is_empty() {
        return None;
    }
    if bucketed.len() < n {
        batch = batch.select(&keep);
    }
    batch.schema = schema.clone();
    batch.columns[col] = Column::I64(bucketed);
    Some(batch)
}

/// [`MapFn::Custom`] over a batch, through records.
fn map_records(
    batch: &Batch,
    schema: &SchemaRef,
    f: &(dyn Fn(&Record) -> Option<Record> + Send + Sync),
) -> Option<Batch> {
    let rows: Vec<Record> = batch.to_records().iter().filter_map(f).collect();
    if rows.is_empty() {
        return None;
    }
    Some(
        Batch::from_records(schema.clone(), &rows)
            .expect("custom map output must match its declared schema"),
    )
}

/// The persistent dictionaries of a `ParseJobStats` operator. The tenant
/// and stat-name streams live in the operator, not the batch, so parsed
/// columns carry codes that stay valid across batches *and* epochs and each
/// page is a monotone snapshot of one stream — which is what lets the wire
/// ship dictionary deltas instead of a full page per frame.
struct ParseDicts {
    tenants: StreamDict,
    names: StreamDict,
    /// Stat index → its code in `names`, interned when the stat's first row
    /// is parsed (`u32::MAX` until then), so codes follow first-parse order.
    name_codes: Vec<u32>,
}

impl ParseDicts {
    fn new(stats: usize) -> ParseDicts {
        ParseDicts {
            tenants: StreamDict::new(),
            names: StreamDict::new(),
            name_codes: vec![u32::MAX; stats],
        }
    }

    /// [`MapFn::ParseJobStats`] over a batch, interning into the streams.
    fn parse(
        &mut self,
        batch: &Batch,
        schema: &SchemaRef,
        col: usize,
        stats: &[String],
    ) -> Option<Batch> {
        let source = &batch.columns[col];
        let n = source.len();
        let mut timestamps = Vec::with_capacity(n);
        let mut tenant_codes = Vec::with_capacity(n);
        let mut name_codes = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for (row, &ts) in batch.timestamps.iter().enumerate() {
            let Some((tenant, stat, value)) =
                row_bytes(source, row).and_then(|line| parse_job_stats(line, stats))
            else {
                continue;
            };
            timestamps.push(ts);
            tenant_codes.push(self.tenants.intern(tenant));
            let code = &mut self.name_codes[stat];
            if *code == u32::MAX {
                *code = self.names.intern(&stats[stat]);
            }
            name_codes.push(*code);
            values.push(value);
        }
        if timestamps.is_empty() {
            return None;
        }
        Some(Batch {
            schema: schema.clone(),
            timestamps,
            columns: vec![
                Column::Dict {
                    codes: tenant_codes,
                    dict: self.tenants.snapshot(),
                },
                Column::Dict {
                    codes: name_codes,
                    dict: self.names.snapshot(),
                },
                Column::F64(values),
            ],
        })
    }
}

/// The map operator.
pub struct MapOp {
    f: MapFn,
    schema: SchemaRef,
    cost: CostModel,
    /// `ParseJobStats` only.
    parse_dicts: Option<ParseDicts>,
}

impl MapOp {
    /// Creates a map operator; `schema` must equal `f.output_schema(input)`.
    pub fn new(f: MapFn, schema: SchemaRef, cost: CostModel) -> MapOp {
        let parse_dicts = match &f {
            MapFn::ParseJobStats { stats, .. } => Some(ParseDicts::new(stats.len())),
            _ => None,
        };
        MapOp {
            f,
            schema,
            cost,
            parse_dicts,
        }
    }
}

impl Operator for MapOp {
    fn kind(&self) -> OpKind {
        OpKind::Map
    }

    fn name(&self) -> String {
        format!("M[{:?}]", self.f)
    }

    fn output_schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn process_batch(&mut self, batch: Batch, out: &mut Vec<Batch>) {
        if batch.is_empty() {
            return;
        }
        let mapped = match &self.f {
            MapFn::TrimLower(col) => Some(trim_lower(batch, &self.schema, *col)),
            MapFn::ParseJobStats { col, stats } => self
                .parse_dicts
                .as_mut()
                .expect("a ParseJobStats operator owns its dictionaries")
                .parse(&batch, &self.schema, *col, stats),
            MapFn::WidthBucket {
                col,
                lo,
                hi,
                buckets,
            } => width_buckets(batch, &self.schema, *col, (*lo, *hi, *buckets)),
            MapFn::Custom { f, .. } => map_records(&batch, &self.schema, f.as_ref()),
        };
        if let Some(mapped) = mapped {
            out.push(mapped);
        }
    }

    fn cost_us(&self) -> f64 {
        self.cost.cost_us(0)
    }

    fn reset(&mut self) {
        // Fresh streams (fresh dict ids) for a fresh run: receivers must
        // never confuse a reset stream's codes with the old assignment.
        if let Some(dicts) = &mut self.parse_dicts {
            *dicts = ParseDicts::new(dicts.name_codes.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_schema() -> SchemaRef {
        Schema::new(vec![Field::new("line", DataType::Str)])
    }

    /// `f` run by a fresh operator over `batch`, as records.
    fn op_records(f: &MapFn, batch: Batch) -> Vec<Record> {
        let out_schema = f.output_schema(&batch.schema).unwrap();
        let mut op = MapOp::new(f.clone(), out_schema, CostModel::fixed(1.0));
        let mut out = Vec::new();
        op.process_batch(batch, &mut out);
        out.iter().flat_map(Batch::to_records).collect()
    }

    #[test]
    fn trim_lower_normalises() {
        let f = MapFn::TrimLower(0);
        let rec = Record::new(0, vec![Value::str("  Tenant Name=Acme  ")]);
        let out = f.apply(&rec).unwrap();
        assert_eq!(out.values[0], Value::str("tenant name=acme"));
        assert_eq!(f.output_schema(&log_schema()).unwrap(), log_schema());
    }

    #[test]
    fn parse_job_stats_extracts_tenant_and_stat() {
        let f = MapFn::ParseJobStats {
            col: 0,
            stats: vec!["job running time".into(), "cpu util".into()],
        };
        let rec = Record::new(7, vec![Value::str("tenant name=acme, cpu util=62.5")]);
        let out = f.apply(&rec).unwrap();
        assert_eq!(out.ts, 7);
        assert_eq!(out.values[0], Value::str("acme"));
        assert_eq!(out.values[1], Value::str("cpu util"));
        assert_eq!(out.values[2], Value::F64(62.5));
    }

    #[test]
    fn parse_job_stats_drops_unparseable_lines() {
        let f = MapFn::ParseJobStats {
            col: 0,
            stats: vec!["cpu util".into()],
        };
        assert!(f
            .apply(&Record::new(0, vec![Value::str("heartbeat ok")]))
            .is_none());
        assert!(f
            .apply(&Record::new(
                0,
                vec![Value::str("tenant name=acme, cpu util=NaNopenope")]
            ))
            .is_none());
    }

    #[test]
    fn width_bucket_matches_sql_semantics() {
        assert_eq!(width_bucket(-1.0, 0.0, 100.0, 10), 0);
        assert_eq!(width_bucket(0.0, 0.0, 100.0, 10), 1);
        assert_eq!(width_bucket(55.0, 0.0, 100.0, 10), 6);
        assert_eq!(width_bucket(100.0, 0.0, 100.0, 10), 11);
        assert_eq!(width_bucket(f64::NEG_INFINITY, 0.0, 100.0, 10), 0);
        assert_eq!(width_bucket(f64::INFINITY, 0.0, 100.0, 10), 11);
    }

    #[test]
    fn width_bucket_drops_nan_rows_on_both_paths() {
        // `cpu util=NaN` parses (`f64::from_str` accepts it); its row has no
        // bucket and must not be counted in [0, 10).
        let parse = MapFn::ParseJobStats {
            col: 0,
            stats: vec!["cpu util".into()],
        };
        let parsed = parse
            .apply(&Record::new(
                0,
                vec![Value::str("tenant name=a, cpu util=NaN")],
            ))
            .unwrap();
        assert!(parsed.values[2].as_f64().unwrap().is_nan());
        let f = MapFn::WidthBucket {
            col: 2,
            lo: 0.0,
            hi: 100.0,
            buckets: 10,
        };
        assert_eq!(f.apply(&parsed), None);

        let stats = Schema::new(vec![Field::new("stat", DataType::F64)]);
        let f = MapFn::WidthBucket {
            col: 0,
            lo: 0.0,
            hi: 100.0,
            buckets: 10,
        };
        let recs: Vec<Record> = [f64::NAN, f64::NEG_INFINITY, 5.0, f64::NAN, f64::INFINITY]
            .iter()
            .enumerate()
            .map(|(i, v)| Record::new(i as i64, vec![Value::F64(*v)]))
            .collect();
        let row: Vec<Record> = recs.iter().filter_map(|r| f.apply(r)).collect();
        let buckets: Vec<Value> = row.iter().map(|r| r.values[0].clone()).collect();
        assert_eq!(buckets, [Value::I64(0), Value::I64(1), Value::I64(11)]);
        let batch = Batch::from_records(stats.clone(), &recs).unwrap();
        assert_eq!(op_records(&f, batch), row);
        let all_nan = Batch::from_records(stats, &[Record::new(0, vec![Value::F64(f64::NAN)])]);
        assert!(op_records(&f, all_nan.unwrap()).is_empty());
    }

    #[test]
    fn width_bucket_map_changes_schema_type() {
        let schema = Schema::new(vec![
            Field::new("tenant", DataType::Str),
            Field::new("stat", DataType::F64),
        ]);
        let f = MapFn::WidthBucket {
            col: 1,
            lo: 0.0,
            hi: 100.0,
            buckets: 10,
        };
        let out_schema = f.output_schema(&schema).unwrap();
        assert_eq!(out_schema.fields()[1].dtype, DataType::I64);
        let rec = Record::new(0, vec![Value::str("t"), Value::F64(31.0)]);
        assert_eq!(f.apply(&rec).unwrap().values[1], Value::I64(4));
    }

    #[test]
    fn map_op_drops_when_fn_returns_none() {
        let f = MapFn::ParseJobStats {
            col: 0,
            stats: vec!["cpu util".into()],
        };
        let recs = vec![
            Record::new(0, vec![Value::str("noise")]),
            Record::new(0, vec![Value::str("tenant name=a, cpu util=5")]),
        ];
        let batch = Batch::from_records(log_schema(), &recs).unwrap();
        assert_eq!(op_records(&f, batch).len(), 1);
    }

    #[test]
    fn parse_op_dicts_are_persistent_across_batches() {
        // The operator interns into stream dictionaries: two epochs of lines
        // must come back with the same dict id and stable codes, row-identical
        // to the row path.
        let f = MapFn::ParseJobStats {
            col: 0,
            stats: vec!["cpu util".into(), "memory util".into()],
        };
        let out_schema = f.output_schema(&log_schema()).unwrap();
        let mut op = MapOp::new(f.clone(), out_schema, CostModel::fixed(1.0));
        let epoch = |base: i64| -> Vec<Record> {
            (0..6)
                .map(|i| {
                    let t = ["acme", "zed", "ora"][i % 3];
                    let stat = ["memory util", "cpu util"][i % 2];
                    Record::new(
                        base + i as i64,
                        vec![Value::str(format!("tenant name={t}, {stat}={i}.5"))],
                    )
                })
                .collect()
        };
        let mut out = Vec::new();
        for base in [0, 1_000_000] {
            let batch = Batch::from_records(log_schema(), &epoch(base)).unwrap();
            op.process_batch(batch, &mut out);
        }
        let (d0, c0) = out[0].columns[0].as_dict().unwrap();
        let (d1, c1) = out[1].columns[0].as_dict().unwrap();
        assert_ne!(d0.id(), 0, "parse dicts are persistent streams");
        assert_eq!(d0.id(), d1.id(), "one stream across batches");
        assert_eq!(d0.get(c0[0]), d1.get(c1[0]), "codes are stable identity");
        // Stat names are coded in first-parse order, not list order.
        let (names, codes) = out[0].columns[1].as_dict().unwrap();
        assert_eq!((names.get(0), codes[0], codes[1]), ("memory util", 0, 1));

        for (e, batch) in out.iter().enumerate() {
            let row: Vec<Record> = epoch(e as i64 * 1_000_000)
                .iter()
                .filter_map(|r| f.apply(r))
                .collect();
            assert_eq!(batch.to_records(), row);
        }

        // A reset starts a fresh stream: new id, so stale mirrors can never
        // misread re-interned codes.
        op.reset();
        let mut fresh = Vec::new();
        op.process_batch(
            Batch::from_records(log_schema(), &epoch(0)).unwrap(),
            &mut fresh,
        );
        let (d2, _) = fresh[0].columns[0].as_dict().unwrap();
        assert_ne!(d2.id(), d0.id(), "reset must mint a new stream id");
    }

    #[test]
    fn operator_matches_row_apply() {
        // Every MapFn shape must produce, row for row, what the scalar
        // `apply` path produces.
        let lines = [
            "  Tenant Name=Acme, CPU Util=62.5  ",
            "heartbeat ok",
            "tenant name=zed, job running time=250.0, host=h7",
            "tenant name=bad, cpu util=NaNope",
            "\u{a0}Tenant Name=ΣΑΣ; cpu util=1\u{85}",
        ];
        let recs: Vec<Record> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| Record::new(i as i64, vec![Value::str(*l)]))
            .collect();
        let fns = [
            MapFn::TrimLower(0),
            MapFn::ParseJobStats {
                col: 0,
                stats: vec!["job running time".into(), "cpu util".into()],
            },
        ];
        for f in fns {
            let row_out: Vec<Record> = recs.iter().filter_map(|r| f.apply(r)).collect();
            let batch = Batch::from_records(log_schema(), &recs).unwrap();
            assert_eq!(op_records(&f, batch), row_out, "mismatch for {f:?}");
        }

        // WidthBucket over a numeric column (needs the parsed schema).
        let parsed = Schema::new(vec![
            Field::new("tenant", DataType::Str),
            Field::new("stat", DataType::F64),
        ]);
        let f = MapFn::WidthBucket {
            col: 1,
            lo: 0.0,
            hi: 100.0,
            buckets: 10,
        };
        let precs = vec![
            Record::new(0, vec![Value::str("a"), Value::F64(31.0)]),
            Record::new(1, vec![Value::str("b"), Value::Null]),
            Record::new(2, vec![Value::str("c"), Value::F64(99.0)]),
        ];
        let row_out: Vec<Record> = precs.iter().filter_map(|r| f.apply(r)).collect();
        let batch = Batch::from_records(parsed, &precs).unwrap();
        assert_eq!(op_records(&f, batch), row_out);
    }

    #[test]
    fn stat_parse_matches_str_parse() {
        for text in [
            "", ".", "7", "62.5", "1.", ".5", "5.5.5", "1e5", "-1.5", "+1.5", "inf", "NaN",
            " 3.25 ", "\u{a0}4", "1_0", "٣",
        ] {
            let want = text.trim().parse::<f64>().ok().map(f64::to_bits);
            assert_eq!(
                parse_stat(text.as_bytes()).map(f64::to_bits),
                want,
                "{text:?}"
            );
        }
        assert_eq!(parse_stat(b"\xff1"), None);
    }

    #[test]
    fn byte_search_matches_str_find() {
        let hay = "level=info job=12 tenant name=tenant-5, cpu util=1.5; jjjob";
        for needle in [
            "",
            "l",
            "level",
            "job",
            "jjob",
            "tenant name",
            "cpu util",
            "5",
            ";",
            "jjjob",
            "jjjobs",
            "absent",
            "tenant-5, cpu util=1.5; jjjob",
        ] {
            for start in 0..hay.len() {
                assert_eq!(
                    find_bytes(&hay.as_bytes()[start..], needle.as_bytes()),
                    hay[start..].find(needle),
                    "{needle:?} in {:?}",
                    &hay[start..]
                );
            }
        }
    }
}
