//! Incrementally-updatable, mergeable aggregates.
//!
//! Rule R-1 (paper §IV-B) admits only aggregations whose partial states can be
//! merged: the data source accumulates partial state for the fraction of
//! records it processes locally, drains the state to the stream processor, and
//! the SP merges it with its own partials. `merge` must therefore be
//! associative and commutative with `update` — property-tested in this module.

use serde::{Deserialize, Serialize};

use crate::quantile::QuantileSketch;
use crate::value::Value;

/// Supported aggregate functions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AggKind {
    /// Number of records.
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Minimum of a numeric column.
    Min,
    /// Maximum of a numeric column.
    Max,
    /// Arithmetic mean of a numeric column.
    Avg,
    /// Approximate quantile `q` over a bounded numeric range (rule R-1:
    /// the *approximate* version is incrementally updatable).
    ApproxQuantile {
        /// Quantile in `[0, 1]`.
        q: f64,
        /// Lower bound of the sketch range.
        lo: f64,
        /// Upper bound of the sketch range.
        hi: f64,
    },
}

/// An aggregate applied to one input column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggSpec {
    /// Which aggregate.
    pub kind: AggKind,
    /// Input column index (ignored by `Count`).
    pub col: usize,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// Creates a spec with a derived output name.
    pub fn new(kind: AggKind, col: usize, name: impl Into<String>) -> AggSpec {
        AggSpec {
            kind,
            col,
            name: name.into(),
        }
    }

    /// Fresh accumulator state for this aggregate.
    pub fn init(&self) -> AggState {
        match &self.kind {
            AggKind::Count => AggState::Count(0),
            AggKind::Sum => AggState::Sum(0.0),
            AggKind::Min => AggState::Min(f64::INFINITY),
            AggKind::Max => AggState::Max(f64::NEG_INFINITY),
            AggKind::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggKind::ApproxQuantile { q, lo, hi } => AggState::Quantile {
                q: *q,
                sketch: Box::new(QuantileSketch::new(*lo, *hi, 64)),
            },
        }
    }
}

/// Mergeable partial aggregate state.
///
/// Every group holds one of these per aggregate, so the enum is kept at 24
/// bytes: the sketch — the only large payload — sits behind a `Box`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AggState {
    /// Count accumulator.
    Count(u64),
    /// Sum accumulator.
    Sum(f64),
    /// Min accumulator.
    Min(f64),
    /// Max accumulator.
    Max(f64),
    /// Average accumulator.
    Avg {
        /// Running sum.
        sum: f64,
        /// Running count.
        count: u64,
    },
    /// Approximate-quantile accumulator.
    Quantile {
        /// Quantile to report.
        q: f64,
        /// Mergeable histogram sketch.
        sketch: Box<QuantileSketch>,
    },
}

impl AggState {
    /// Folds one value into the state. Non-numeric values are ignored except
    /// by `Count`, which counts every record.
    pub fn update(&mut self, value: &Value) {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum(s) => {
                if let Some(v) = value.as_f64() {
                    *s += v;
                }
            }
            AggState::Min(m) => {
                if let Some(v) = value.as_f64() {
                    if v < *m {
                        *m = v;
                    }
                }
            }
            AggState::Max(m) => {
                if let Some(v) = value.as_f64() {
                    if v > *m {
                        *m = v;
                    }
                }
            }
            AggState::Avg { sum, count } => {
                if let Some(v) = value.as_f64() {
                    *sum += v;
                    *count += 1;
                }
            }
            AggState::Quantile { sketch, .. } => {
                if let Some(v) = value.as_f64() {
                    sketch.insert(v);
                }
            }
        }
    }

    /// Columnar fast path: folds one numeric value without boxing it in a
    /// [`Value`]. Identical to [`AggState::update`] with a numeric value.
    #[inline]
    pub fn update_f64(&mut self, v: f64) {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum(s) => *s += v,
            AggState::Min(m) => {
                if v < *m {
                    *m = v;
                }
            }
            AggState::Max(m) => {
                if v > *m {
                    *m = v;
                }
            }
            AggState::Avg { sum, count } => {
                *sum += v;
                *count += 1;
            }
            AggState::Quantile { sketch, .. } => sketch.insert(v),
        }
    }

    /// Folds one record given its aggregate input as the columnar kernels
    /// see it: `Count` counts every record, the others fold `v` only when
    /// the input was numeric and valid (exactly [`AggState::update`]).
    #[inline]
    pub fn fold(&mut self, v: Option<f64>) {
        match (self, v) {
            (AggState::Count(c), _) => *c += 1,
            (state, Some(v)) => state.update_f64(v),
            (_, None) => {}
        }
    }

    /// Merges another partial state of the same kind into this one.
    /// Mismatched kinds are a plan-construction bug and panic in debug builds;
    /// in release they are ignored to keep the pipeline alive.
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Min(a), AggState::Min(b)) => {
                if b < a {
                    *a = *b;
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if b > a {
                    *a = *b;
                }
            }
            (AggState::Avg { sum: s1, count: c1 }, AggState::Avg { sum: s2, count: c2 }) => {
                *s1 += s2;
                *c1 += c2;
            }
            (AggState::Quantile { sketch: s1, .. }, AggState::Quantile { sketch: s2, .. }) => {
                s1.merge(s2);
            }
            _ => debug_assert!(false, "merging mismatched aggregate states"),
        }
    }

    /// Finalises the state into an output value.
    pub fn finalize(&self) -> Value {
        match self {
            AggState::Count(c) => Value::U64(*c),
            AggState::Sum(s) => Value::F64(*s),
            AggState::Min(m) => {
                if m.is_finite() {
                    Value::F64(*m)
                } else {
                    Value::Null
                }
            }
            AggState::Max(m) => {
                if m.is_finite() {
                    Value::F64(*m)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::F64(sum / *count as f64)
                }
            }
            AggState::Quantile { q, sketch } => match sketch.quantile(*q) {
                Some(v) => Value::F64(v),
                None => Value::Null,
            },
        }
    }

    /// Approximate in-memory/wire size of the partial state in bytes, used
    /// when accounting for drained state transfers.
    pub fn state_bytes(&self) -> usize {
        match self {
            AggState::Count(_) | AggState::Sum(_) | AggState::Min(_) | AggState::Max(_) => 8,
            AggState::Avg { .. } => 16,
            AggState::Quantile { sketch, .. } => sketch.state_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(spec: &AggSpec, values: &[f64]) -> AggState {
        let mut st = spec.init();
        for v in values {
            st.update(&Value::F64(*v));
        }
        st
    }

    #[test]
    fn agg_state_stays_three_words() {
        // One per aggregate per live group: the SP's dominant allocation.
        assert!(std::mem::size_of::<AggState>() <= 24);
    }

    #[test]
    fn avg_matches_definition() {
        let spec = AggSpec::new(AggKind::Avg, 0, "avg");
        let st = run(&spec, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(st.finalize(), Value::F64(2.5));
    }

    #[test]
    fn empty_aggregates_finalize_to_null_or_zero() {
        assert_eq!(
            AggSpec::new(AggKind::Count, 0, "c").init().finalize(),
            Value::U64(0)
        );
        assert_eq!(
            AggSpec::new(AggKind::Min, 0, "m").init().finalize(),
            Value::Null
        );
        assert_eq!(
            AggSpec::new(AggKind::Avg, 0, "a").init().finalize(),
            Value::Null
        );
    }

    #[test]
    fn merge_equals_union_for_all_kinds() {
        let specs = [
            AggSpec::new(AggKind::Count, 0, "c"),
            AggSpec::new(AggKind::Sum, 0, "s"),
            AggSpec::new(AggKind::Min, 0, "mn"),
            AggSpec::new(AggKind::Max, 0, "mx"),
            AggSpec::new(AggKind::Avg, 0, "av"),
        ];
        let left = [5.0, 1.0, 3.5];
        let right = [9.0, -2.0];
        let all: Vec<f64> = left.iter().chain(right.iter()).copied().collect();
        for spec in &specs {
            let mut a = run(spec, &left);
            let b = run(spec, &right);
            a.merge(&b);
            assert_eq!(
                a.finalize(),
                run(spec, &all).finalize(),
                "kind {:?}",
                spec.kind
            );
        }
    }

    #[test]
    fn count_counts_non_numeric_records() {
        let spec = AggSpec::new(AggKind::Count, 0, "c");
        let mut st = spec.init();
        st.update(&Value::str("not a number"));
        st.update(&Value::Null);
        assert_eq!(st.finalize(), Value::U64(2));
    }

    #[test]
    fn sum_ignores_non_numeric() {
        let spec = AggSpec::new(AggKind::Sum, 0, "s");
        let mut st = spec.init();
        st.update(&Value::F64(2.0));
        st.update(&Value::str("skip"));
        assert_eq!(st.finalize(), Value::F64(2.0));
    }

    #[test]
    fn quantile_state_is_mergeable() {
        let spec = AggSpec::new(
            AggKind::ApproxQuantile {
                q: 0.5,
                lo: 0.0,
                hi: 100.0,
            },
            0,
            "p50",
        );
        let mut a = spec.init();
        let mut b = spec.init();
        for v in 0..50 {
            a.update(&Value::F64(v as f64));
        }
        for v in 50..100 {
            b.update(&Value::F64(v as f64));
        }
        a.merge(&b);
        let Value::F64(est) = a.finalize() else {
            panic!("expected f64")
        };
        assert!(
            (est - 50.0).abs() < 5.0,
            "p50 estimate {est} too far from 50"
        );
    }
}
