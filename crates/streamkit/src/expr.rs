//! Row expressions for filters and derived columns.
//!
//! Queries are declarative (paper §II-A): predicates are data, which lets the
//! logical optimiser fold constants and push filters down, and lets the
//! planner reason about which columns an expression touches.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use crate::batch::{Batch, Column};
use crate::ops::map::{find_bytes, row_bytes};
use crate::record::Record;
use crate::value::Value;

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// An expression tree evaluated against one record.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to column `i` of the input schema.
    Col(usize),
    /// A literal value.
    Lit(Value),
    /// Comparison of two sub-expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic on two numeric sub-expressions.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical AND (short-circuiting).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (short-circuiting).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// True when the string column contains the needle.
    Contains(Box<Expr>, String),
    /// True when the string column contains *any* of the needles — the
    /// LogAnalytics pattern filter from Listing 3.
    ContainsAny(usize, Vec<String>),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }

    /// `self <> rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Evaluates against a record. Type errors and null propagation both
    /// yield `Value::Null`; predicates treat `Null` as `false`.
    pub fn eval(&self, rec: &Record) -> Value {
        match self {
            Expr::Col(i) => rec.values.get(*i).cloned().unwrap_or(Value::Null),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(rec), b.eval(rec));
                match va.compare(&vb) {
                    Some(ord) => Value::Bool(op.test(ord)),
                    None => Value::Null,
                }
            }
            Expr::Arith(op, a, b) => {
                let (va, vb) = (a.eval(rec), b.eval(rec));
                match (va.as_f64(), vb.as_f64()) {
                    (Some(x), Some(y)) => {
                        let r = match op {
                            ArithOp::Add => x + y,
                            ArithOp::Sub => x - y,
                            ArithOp::Mul => x * y,
                            ArithOp::Div => {
                                if y == 0.0 {
                                    return Value::Null;
                                }
                                x / y
                            }
                        };
                        Value::F64(r)
                    }
                    _ => Value::Null,
                }
            }
            Expr::And(a, b) => match a.eval(rec).as_bool() {
                Some(false) => Value::Bool(false),
                Some(true) => b.eval(rec),
                None => Value::Null,
            },
            Expr::Or(a, b) => match a.eval(rec).as_bool() {
                Some(true) => Value::Bool(true),
                Some(false) => b.eval(rec),
                None => Value::Null,
            },
            Expr::Not(a) => match a.eval(rec).as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            Expr::Contains(a, needle) => match a.eval(rec) {
                Value::Str(s) => Value::Bool(s.contains(needle.as_str())),
                _ => Value::Null,
            },
            Expr::ContainsAny(col, needles) => match rec.values.get(*col) {
                Some(Value::Str(s)) => Value::Bool(needles.iter().any(|n| s.contains(n.as_str()))),
                _ => Value::Null,
            },
        }
    }

    /// Evaluates as a predicate: `Null` and non-boolean results are `false`.
    pub fn matches(&self, rec: &Record) -> bool {
        self.eval(rec).as_bool().unwrap_or(false)
    }

    /// Evaluates against one row of a batch without materializing a
    /// [`Record`]. Semantically identical to [`Expr::eval`] on the row.
    pub fn eval_at(&self, batch: &Batch, row: usize) -> Value {
        match self {
            Expr::Col(i) => batch.columns.get(*i).map_or(Value::Null, |c| c.value(row)),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval_at(batch, row), b.eval_at(batch, row));
                match va.compare(&vb) {
                    Some(ord) => Value::Bool(op.test(ord)),
                    None => Value::Null,
                }
            }
            Expr::Arith(op, a, b) => {
                let (va, vb) = (a.eval_at(batch, row), b.eval_at(batch, row));
                match (va.as_f64(), vb.as_f64()) {
                    (Some(x), Some(y)) => {
                        let r = match op {
                            ArithOp::Add => x + y,
                            ArithOp::Sub => x - y,
                            ArithOp::Mul => x * y,
                            ArithOp::Div => {
                                if y == 0.0 {
                                    return Value::Null;
                                }
                                x / y
                            }
                        };
                        Value::F64(r)
                    }
                    _ => Value::Null,
                }
            }
            Expr::And(a, b) => match a.eval_at(batch, row).as_bool() {
                Some(false) => Value::Bool(false),
                Some(true) => b.eval_at(batch, row),
                None => Value::Null,
            },
            Expr::Or(a, b) => match a.eval_at(batch, row).as_bool() {
                Some(true) => Value::Bool(true),
                Some(false) => b.eval_at(batch, row),
                None => Value::Null,
            },
            Expr::Not(a) => match a.eval_at(batch, row).as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            Expr::Contains(a, needle) => match a.eval_at(batch, row) {
                Value::Str(s) => Value::Bool(s.contains(needle.as_str())),
                _ => Value::Null,
            },
            Expr::ContainsAny(col, needles) => {
                match batch.columns.get(*col).and_then(|c| c.str_at(row)) {
                    Some(s) => Value::Bool(needles.iter().any(|n| s.contains(n.as_str()))),
                    None => Value::Null,
                }
            }
        }
    }

    /// Predicate form of [`Expr::eval_at`].
    pub fn matches_at(&self, batch: &Batch, row: usize) -> bool {
        self.eval_at(batch, row).as_bool().unwrap_or(false)
    }

    /// Evaluates the predicate over a whole batch into a selection mask.
    ///
    /// Common shapes — `col <op> literal` comparisons on typed columns,
    /// substring filters on string columns, and total AND/OR/NOT
    /// combinations of them — run as tight columnar kernels; anything else
    /// falls back to row-wise [`Expr::matches_at`], which is still
    /// `Record`-free. The mask is bit-identical to calling
    /// [`Expr::matches`] per row.
    pub fn eval_mask(&self, batch: &Batch) -> Vec<bool> {
        match self.mask_kernel(batch) {
            Some((mask, _)) => mask,
            None => (0..batch.len())
                .map(|r| self.matches_at(batch, r))
                .collect(),
        }
    }

    /// Columnar kernel, when one applies: `(mask, total)` where `total`
    /// means no row could have evaluated to `Null` — the condition for
    /// folding the mask through AND/OR/NOT without losing the row path's
    /// three-valued logic.
    fn mask_kernel(&self, batch: &Batch) -> Option<(Vec<bool>, bool)> {
        let rows = batch.len();
        match self {
            Expr::Lit(Value::Bool(b)) => Some((vec![*b; rows], true)),
            Expr::Cmp(op, a, b) => {
                let (idx, lit, flip) = match (&**a, &**b) {
                    (Expr::Col(i), Expr::Lit(v)) => (*i, v, false),
                    (Expr::Lit(v), Expr::Col(i)) => (*i, v, true),
                    _ => return None,
                };
                cmp_kernel(*op, batch.columns.get(idx)?, lit, flip)
            }
            Expr::Contains(a, needle) => {
                let Expr::Col(i) = &**a else { return None };
                let col = batch.columns.get(*i)?;
                contains_kernel(col, std::slice::from_ref(needle))
            }
            Expr::ContainsAny(i, needles) => contains_kernel(batch.columns.get(*i)?, needles),
            Expr::And(a, b) => {
                let (ma, ta) = a.mask_kernel(batch)?;
                let (mb, tb) = b.mask_kernel(batch)?;
                // Without totality, Null-vs-false distinctions would change
                // the combined result; defer to the scalar path.
                if !(ta && tb) {
                    return None;
                }
                Some((ma.iter().zip(&mb).map(|(x, y)| *x && *y).collect(), true))
            }
            Expr::Or(a, b) => {
                let (ma, ta) = a.mask_kernel(batch)?;
                let (mb, tb) = b.mask_kernel(batch)?;
                if !(ta && tb) {
                    return None;
                }
                Some((ma.iter().zip(&mb).map(|(x, y)| *x || *y).collect(), true))
            }
            Expr::Not(a) => {
                let (m, total) = a.mask_kernel(batch)?;
                if !total {
                    return None;
                }
                Some((m.iter().map(|x| !x).collect(), true))
            }
            _ => None,
        }
    }

    /// Collects the column indices this expression reads.
    pub fn column_refs(&self, out: &mut BTreeSet<usize>) {
        match self {
            Expr::Col(i) => {
                out.insert(*i);
            }
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.column_refs(out);
                b.column_refs(out);
            }
            Expr::Not(a) | Expr::Contains(a, _) => a.column_refs(out),
            Expr::ContainsAny(col, _) => {
                out.insert(*col);
            }
        }
    }

    /// Rewrites column references through a mapping (used when pushing a
    /// filter past a projection). Returns `None` if a referenced column has
    /// no pre-image.
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> Option<usize>) -> Option<Expr> {
        Some(match self {
            Expr::Col(i) => Expr::Col(map(*i)?),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.remap_columns(map)?),
                Box::new(b.remap_columns(map)?),
            ),
            Expr::Arith(op, a, b) => Expr::Arith(
                *op,
                Box::new(a.remap_columns(map)?),
                Box::new(b.remap_columns(map)?),
            ),
            Expr::And(a, b) => Expr::And(
                Box::new(a.remap_columns(map)?),
                Box::new(b.remap_columns(map)?),
            ),
            Expr::Or(a, b) => Expr::Or(
                Box::new(a.remap_columns(map)?),
                Box::new(b.remap_columns(map)?),
            ),
            Expr::Not(a) => Expr::Not(Box::new(a.remap_columns(map)?)),
            Expr::Contains(a, n) => Expr::Contains(Box::new(a.remap_columns(map)?), n.clone()),
            Expr::ContainsAny(col, n) => Expr::ContainsAny(map(*col)?, n.clone()),
        })
    }

    /// True when the expression references no columns.
    pub fn is_const(&self) -> bool {
        let mut refs = BTreeSet::new();
        self.column_refs(&mut refs);
        refs.is_empty()
    }

    /// Constant folding: evaluates constant sub-trees once. This is the
    /// "constant folding" logical optimisation from paper §IV-B.
    pub fn fold(self) -> Expr {
        // Fold children first, then collapse if the whole node is constant.
        let folded = match self {
            Expr::Cmp(op, a, b) => Expr::Cmp(op, Box::new(a.fold()), Box::new(b.fold())),
            Expr::Arith(op, a, b) => Expr::Arith(op, Box::new(a.fold()), Box::new(b.fold())),
            Expr::And(a, b) => {
                let (a, b) = (a.fold(), b.fold());
                match (&a, &b) {
                    (Expr::Lit(Value::Bool(false)), _) | (_, Expr::Lit(Value::Bool(false))) => {
                        return Expr::Lit(Value::Bool(false));
                    }
                    (Expr::Lit(Value::Bool(true)), _) => return b,
                    (_, Expr::Lit(Value::Bool(true))) => return a,
                    _ => Expr::And(Box::new(a), Box::new(b)),
                }
            }
            Expr::Or(a, b) => {
                let (a, b) = (a.fold(), b.fold());
                match (&a, &b) {
                    (Expr::Lit(Value::Bool(true)), _) | (_, Expr::Lit(Value::Bool(true))) => {
                        return Expr::Lit(Value::Bool(true));
                    }
                    (Expr::Lit(Value::Bool(false)), _) => return b,
                    (_, Expr::Lit(Value::Bool(false))) => return a,
                    _ => Expr::Or(Box::new(a), Box::new(b)),
                }
            }
            Expr::Not(a) => Expr::Not(Box::new(a.fold())),
            Expr::Contains(a, n) => Expr::Contains(Box::new(a.fold()), n),
            other => other,
        };
        if folded.is_const() {
            let dummy = Record::new(0, Vec::new());
            Expr::Lit(folded.eval(&dummy))
        } else {
            folded
        }
    }
}

/// Comparison kernel for `col <op> lit` (or flipped). Mirrors
/// [`Value::compare`]: exact integer/string/bool comparisons for matching
/// types, `f64` comparison across numeric types, `Null`/mismatch → `false`.
fn cmp_kernel(op: CmpOp, col: &Column, lit: &Value, flip: bool) -> Option<(Vec<bool>, bool)> {
    let test = |ord: Ordering| op.test(if flip { ord.reverse() } else { ord });
    match (col, lit) {
        (Column::U64(v), Value::U64(x)) => Some((v.iter().map(|a| test(a.cmp(x))).collect(), true)),
        (Column::I64(v), Value::I64(x)) => Some((v.iter().map(|a| test(a.cmp(x))).collect(), true)),
        (Column::Bool(v), Value::Bool(x)) => {
            Some((v.iter().map(|a| test(a.cmp(x))).collect(), true))
        }
        (Column::Str { .. }, Value::Str(x)) => {
            let mask = (0..col.len())
                .map(|r| test(col.str_at(r).unwrap_or("").cmp(x.as_ref())))
                .collect();
            Some((mask, true))
        }
        (Column::Dict { codes, dict }, Value::Str(x)) => {
            // Compare each dictionary entry once, then scan the codes: the
            // per-row work collapses to a table lookup.
            let hits: Vec<bool> = dict.iter().map(|e| test(e.cmp(x.as_ref()))).collect();
            let mask = codes.iter().map(|&c| hits[c as usize]).collect();
            Some((mask, true))
        }
        (Column::I64(_) | Column::U64(_) | Column::F64(_) | Column::Bool(_), lit) => {
            // Cross-type numeric comparison goes through f64, as the scalar
            // path does. A NaN anywhere yields Null → false, so the mask is
            // total only when neither side can be NaN.
            let x = lit.as_f64()?;
            let total = !x.is_nan() && !matches!(col, Column::F64(_));
            let mask = (0..col.len())
                .map(|r| {
                    col.f64_at(r)
                        .and_then(|a| a.partial_cmp(&x))
                        .is_some_and(test)
                })
                .collect();
            Some((mask, total))
        }
        _ => None,
    }
}

/// Substring kernel for `Contains`/`ContainsAny` over a string column,
/// searching each row's bytes (`Str` columns hold UTF-8, where a byte match
/// is a `str::contains` match). Dictionary columns resolve the needles
/// against each distinct entry once (a code-set test), then scan the codes.
fn contains_kernel(col: &Column, needles: &[String]) -> Option<(Vec<bool>, bool)> {
    let hit = |hay: &[u8]| {
        needles
            .iter()
            .any(|n| find_bytes(hay, n.as_bytes()).is_some())
    };
    if let Column::Dict { codes, dict } = col {
        let hits: Vec<bool> = dict.iter().map(|e| hit(e.as_bytes())).collect();
        let mask = codes.iter().map(|&c| hits[c as usize]).collect();
        return Some((mask, true));
    }
    let total = match col {
        Column::Str { .. } => true,
        // Null rows evaluate to Null in the scalar path: non-total.
        Column::Opt { values, .. }
            if matches!(values.as_ref(), Column::Str { .. } | Column::Dict { .. }) =>
        {
            false
        }
        _ => return None,
    };
    let mask = (0..col.len())
        .map(|r| row_bytes(col, r).is_some_and(hit))
        .collect();
    Some((mask, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(values: Vec<Value>) -> Record {
        Record::new(0, values)
    }

    #[test]
    fn filter_predicate_from_listing_1() {
        // Filter(e => e.errCode == 0) with errCode at column 5.
        let p = Expr::col(5).eq(Expr::lit(0u64));
        assert!(p.matches(&rec(vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::U64(0)
        ])));
        assert!(!p.matches(&rec(vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::U64(3)
        ])));
    }

    #[test]
    fn contains_any_matches_log_patterns() {
        let p = Expr::ContainsAny(0, vec!["tenant name".into(), "cpu util".into()]);
        assert!(p.matches(&rec(vec![Value::str("x cpu util=55 y")])));
        assert!(!p.matches(&rec(vec![Value::str("heartbeat ok")])));
    }

    #[test]
    fn null_propagates_and_predicates_reject_null() {
        let p = Expr::col(0).gt(Expr::lit(1i64));
        assert!(!p.matches(&rec(vec![Value::Null])));
        assert_eq!(p.eval(&rec(vec![Value::Null])), Value::Null);
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let e = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(0i64)),
        );
        assert_eq!(e.eval(&rec(vec![Value::I64(10)])), Value::Null);
        let e2 = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(2i64)),
        );
        assert_eq!(e2.eval(&rec(vec![Value::I64(10)])), Value::F64(12.0));
    }

    #[test]
    fn fold_collapses_constant_trees() {
        let e = Expr::lit(2i64)
            .gt(Expr::lit(1i64))
            .and(Expr::col(0).eq(Expr::lit(5i64)));
        // `2 > 1` folds to true; `true AND x` folds to x.
        assert_eq!(e.fold(), Expr::col(0).eq(Expr::lit(5i64)));

        let always_false = Expr::lit(1i64)
            .gt(Expr::lit(2i64))
            .and(Expr::col(0).eq(Expr::lit(5i64)));
        assert_eq!(always_false.fold(), Expr::Lit(Value::Bool(false)));
    }

    #[test]
    fn column_refs_are_collected() {
        let e = Expr::col(3)
            .gt(Expr::lit(1i64))
            .and(Expr::ContainsAny(7, vec!["a".into()]));
        let mut refs = BTreeSet::new();
        e.column_refs(&mut refs);
        assert_eq!(refs.into_iter().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn mask_matches_scalar_evaluation() {
        use crate::batch::Batch;
        use crate::schema::{DataType, Field, Schema};

        let schema = Schema::new(vec![
            Field::new("err", DataType::U32),
            Field::new("rtt", DataType::F64),
            Field::new("line", DataType::Str),
        ]);
        let recs: Vec<Record> = (0..64)
            .map(|i| {
                Record::new(
                    i,
                    vec![
                        Value::U64((i % 5) as u64),
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            Value::F64(i as f64 * 1.5)
                        },
                        Value::str(if i % 3 == 0 { "cpu util=5" } else { "noise" }),
                    ],
                )
            })
            .collect();
        let batch = Batch::from_records(schema, &recs).unwrap();

        let exprs = [
            Expr::col(0).eq(Expr::lit(0u64)),
            Expr::col(0).ne(Expr::lit(2u64)),
            Expr::col(1).gt(Expr::lit(30.0)),
            Expr::lit(10u64).le(Expr::col(0)),
            Expr::ContainsAny(2, vec!["cpu util".into()]),
            Expr::col(0)
                .eq(Expr::lit(0u64))
                .and(Expr::ContainsAny(2, vec!["cpu".into()])),
            Expr::col(0)
                .eq(Expr::lit(1u64))
                .or(Expr::col(0).eq(Expr::lit(2u64))),
            Expr::col(0).eq(Expr::lit(3u64)).not(),
            Expr::col(1).gt(Expr::lit(30.0)).not(), // non-total operand
        ];
        for e in &exprs {
            let mask = e.eval_mask(&batch);
            let scalar: Vec<bool> = recs.iter().map(|r| e.matches(r)).collect();
            assert_eq!(mask, scalar, "mask mismatch for {e:?}");
        }
    }

    #[test]
    fn dict_masks_match_scalar_evaluation() {
        use crate::batch::Batch;
        use crate::schema::{DataType, Field, Schema};

        let schema = Schema::new(vec![
            Field::new("stat", DataType::Str),
            Field::new("v", DataType::F64),
        ]);
        let recs: Vec<Record> = (0..48)
            .map(|i| {
                Record::new(
                    i,
                    vec![
                        Value::str(["cpu util", "memory util", "gc pause"][i as usize % 3]),
                        Value::F64(i as f64),
                    ],
                )
            })
            .collect();
        let mut batch = Batch::from_records(schema, &recs).unwrap();
        assert!(batch.dict_encode(8), "stat column must dict-encode");

        let exprs = [
            Expr::col(0).eq(Expr::lit("cpu util")),
            Expr::col(0).ne(Expr::lit("gc pause")),
            Expr::lit("memory util").le(Expr::col(0)),
            Expr::Contains(Box::new(Expr::col(0)), "util".into()),
            Expr::ContainsAny(0, vec!["cpu".into(), "gc".into()]),
            Expr::col(0)
                .eq(Expr::lit("cpu util"))
                .and(Expr::col(1).gt(Expr::lit(10.0))),
            Expr::ContainsAny(0, vec!["util".into()]).not(),
        ];
        for e in &exprs {
            let mask = e.eval_mask(&batch);
            let scalar: Vec<bool> = recs.iter().map(|r| e.matches(r)).collect();
            assert_eq!(mask, scalar, "dict mask mismatch for {e:?}");
        }
    }

    #[test]
    fn contains_masks_equal_str_contains_on_random_utf8() {
        use crate::batch::Batch;
        use crate::schema::{DataType, Field, Schema};

        // Multi-byte characters share lead and continuation bytes, so a
        // byte search that could match mid-character would show here.
        const CHARS: [char; 8] = ['a', 'b', '=', ' ', 'é', 'ê', '€', '𝄞'];
        let mut x = 29u64;
        let mut next = || {
            // xorshift64*: deterministic and spread over every bit.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut text = |max: u64| -> String {
            let len = next() % (max + 1);
            (0..len)
                .map(|_| CHARS[next() as usize % CHARS.len()])
                .collect()
        };
        let schema = Schema::new(vec![Field::new("line", DataType::Str)]);
        for case in 0..200usize {
            let lines: Vec<String> = (0..24).map(|_| text(12)).collect();
            let mut needles: Vec<String> = (0..1 + case % 4).map(|_| text(3)).collect();
            if case.is_multiple_of(10) {
                needles.push(String::new());
            }
            // Odd cases null every third line: the column turns nullable.
            let null = |row: usize| !case.is_multiple_of(2) && row.is_multiple_of(3);
            let recs: Vec<Record> = lines
                .iter()
                .enumerate()
                .map(|(row, l)| {
                    let v = if null(row) {
                        Value::Null
                    } else {
                        Value::str(l)
                    };
                    Record::new(0, vec![v])
                })
                .collect();
            let batch = Batch::from_records(schema.clone(), &recs).unwrap();
            let expected: Vec<bool> = lines
                .iter()
                .enumerate()
                .map(|(row, l)| !null(row) && needles.iter().any(|n| l.contains(n.as_str())))
                .collect();
            let e = Expr::ContainsAny(0, needles.clone());
            assert_eq!(e.eval_mask(&batch), expected, "{needles:?}");
            let (_, total) = e.mask_kernel(&batch).expect("a string column has a kernel");
            assert_eq!(
                total,
                case.is_multiple_of(2),
                "null rows make the mask non-total"
            );
        }
    }

    #[test]
    fn remap_columns_applies_projection_inverse() {
        let e = Expr::col(1).eq(Expr::lit(0i64));
        let remapped = e
            .remap_columns(&|i| if i == 1 { Some(4) } else { None })
            .unwrap();
        assert_eq!(remapped, Expr::col(4).eq(Expr::lit(0i64)));
        let gone = Expr::col(2).eq(Expr::lit(0i64)).remap_columns(&|_| None);
        assert!(gone.is_none());
    }
}
