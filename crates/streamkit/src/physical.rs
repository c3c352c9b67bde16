//! Physical planning: logical chain → executable operator pipeline.
//!
//! The same logical plan is instantiated twice in a Jarvis deployment — once
//! on the data source (stateful ops in [`AggRole::Partial`]) and once on the
//! stream processor ([`AggRole::Final`]) — so the builder takes the role and
//! the per-operator cost profile as parameters. Pipelines are batch-first:
//! every stage implements [`Operator::process_batch`].

use crate::batch::Batch;
use crate::error::{Error, Result};
use crate::logical::{LogicalOp, LogicalPlan};
use crate::ops::{
    AggRole, CostModel, FilterOp, GroupAggregateOp, JoinOp, MapOp, OpKind, Operator, ProjectOp,
    WindowAssignOp,
};
use crate::window::TumblingWindow;

/// Per-operator cost models, aligned with the logical plan's op indices.
#[derive(Debug, Clone, Default)]
pub struct CostProfile {
    costs: Vec<CostModel>,
}

impl CostProfile {
    /// A profile giving every operator the same fixed cost (tests).
    pub fn uniform(len: usize, base_us: f64) -> CostProfile {
        CostProfile {
            costs: vec![CostModel::fixed(base_us); len],
        }
    }

    /// A profile from explicit per-op models.
    pub fn from_models(costs: Vec<CostModel>) -> CostProfile {
        CostProfile { costs }
    }

    /// Cost model for op `i`; defaults by kind when unspecified.
    pub fn for_op(&self, i: usize, kind: OpKind) -> CostModel {
        self.costs
            .get(i)
            .copied()
            .unwrap_or_else(|| default_cost(kind))
    }
}

/// Default per-record cost by operator kind (µs); used when no calibration is
/// supplied. Rough magnitudes follow the paper's characterisation: filters are
/// cheap, hash-based operators are expensive and state-dependent.
pub fn default_cost(kind: OpKind) -> CostModel {
    match kind {
        OpKind::Window => CostModel::fixed(0.05),
        OpKind::Filter => CostModel::fixed(1.0),
        OpKind::Map => CostModel::fixed(2.0),
        OpKind::Project => CostModel::fixed(0.5),
        OpKind::GroupAggregate => CostModel::state_dependent(8.0, 0.15, 10_000.0),
        OpKind::Join => CostModel::state_dependent(4.0, 0.25, 500.0),
    }
}

/// Builds the executable (vectorized, batch-first) pipeline for `plan`.
///
/// `role` applies to stateful operators: `Partial` instances accumulate
/// mergeable state for shipping, `Final` instances emit results.
pub fn build_pipeline(
    plan: &LogicalPlan,
    costs: &CostProfile,
    role: AggRole,
) -> Result<Vec<Box<dyn Operator>>> {
    plan.validate()?;
    let schemas = plan.edge_schemas()?;
    let mut ops: Vec<Box<dyn Operator>> = Vec::with_capacity(plan.ops.len());
    for (i, op) in plan.ops.iter().enumerate() {
        let input = &schemas[i];
        let output = &schemas[i + 1];
        let cost = costs.for_op(i, op.kind());
        let built: Box<dyn Operator> = match op {
            LogicalOp::Window { size } => Box::new(WindowAssignOp::new(
                TumblingWindow::new(*size),
                output.clone(),
                cost,
            )),
            LogicalOp::Filter { predicate } => {
                Box::new(FilterOp::new(predicate.clone(), output.clone(), cost))
            }
            LogicalOp::Map { f } => Box::new(MapOp::new(f.clone(), output.clone(), cost)),
            LogicalOp::Project { cols } => {
                Box::new(ProjectOp::new(cols.clone(), output.clone(), cost))
            }
            LogicalOp::GroupAggregate { keys, aggs, emit } => {
                let window = plan
                    .window_for(i)
                    .ok_or_else(|| Error::InvalidPlan("stateful op without window".into()))?;
                Box::new(GroupAggregateOp::new(
                    keys.clone(),
                    aggs.clone(),
                    input,
                    TumblingWindow::new(window),
                    *emit,
                    role,
                    cost,
                ))
            }
            LogicalOp::Join {
                table,
                key_col,
                miss,
                ..
            } => Box::new(JoinOp::new(table.clone(), *key_col, *miss, input, cost)?),
        };
        ops.push(built);
    }
    Ok(ops)
}

/// Closes every window closed by watermark `wm` across a built pipeline and
/// routes the emissions through the downstream stages, returning the batches
/// that exit the chain. This is the single flush shared by every execution
/// backend — the live tiers call it at every epoch barrier and once more
/// with `TS_MAX` at the end of the run — so exact merged results depend on
/// all of them closing windows the same way. A watermark that closes nothing
/// allocates nothing.
pub fn drain_windows(ops: &mut [Box<dyn Operator>], wm: crate::time::Ts) -> Vec<Batch> {
    let n = ops.len();
    let mut out = Vec::new();
    for i in 0..n {
        let mut batches: Vec<Batch> = Vec::new();
        ops[i].on_watermark(wm, &mut batches);
        if batches.is_empty() {
            continue;
        }
        for later in ops.iter_mut().take(n).skip(i + 1) {
            let mut next = Vec::new();
            for batch in batches.drain(..) {
                later.process_batch(batch, &mut next);
            }
            batches = next;
        }
        out.extend(batches);
    }
    out
}

/// Row-oriented view of [`drain_windows`] (collection/fingerprinting paths).
pub fn drain_windows_rows(
    ops: &mut [Box<dyn Operator>],
    wm: crate::time::Ts,
) -> Vec<crate::record::Record> {
    drain_windows(ops, wm)
        .iter()
        .flat_map(Batch::to_records)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggKind;
    use crate::expr::Expr;
    use crate::query::Query;
    use crate::record::Record;
    use crate::schema::{DataType, Field, Schema};
    use crate::time::secs;
    use crate::value::Value;

    fn s2s_plan() -> LogicalPlan {
        let schema = Schema::new(vec![
            Field::new("srcIp", DataType::U32),
            Field::new("dstIp", DataType::U32),
            Field::new("rtt", DataType::U32),
            Field::new("errCode", DataType::U32),
        ]);
        Query::stream("s2s", schema)
            .window_secs(10.0)
            .filter_named("errCode", |c| c.eq(Expr::lit(0u64)))
            .group_by(&["srcIp", "dstIp"])
            .aggregate(&[(AggKind::Avg, "rtt", "avg_rtt")])
            .build()
            .unwrap()
    }

    fn run_chain(ops: &mut [Box<dyn Operator>], batch: Batch) -> Vec<Batch> {
        let mut cur = vec![batch];
        for op in ops.iter_mut() {
            let mut next = Vec::new();
            for b in cur {
                op.process_batch(b, &mut next);
            }
            cur = next;
        }
        cur
    }

    fn input_batch(plan: &LogicalPlan) -> Batch {
        let recs = vec![
            Record::new(
                secs(1.0),
                vec![Value::U64(1), Value::U64(2), Value::U64(100), Value::U64(0)],
            ),
            Record::new(
                secs(2.0),
                vec![Value::U64(1), Value::U64(2), Value::U64(200), Value::U64(1)],
            ),
            Record::new(
                secs(3.0),
                vec![Value::U64(1), Value::U64(2), Value::U64(300), Value::U64(0)],
            ),
        ];
        Batch::from_records(plan.edge_schemas().unwrap()[0].clone(), &recs).unwrap()
    }

    #[test]
    fn builds_and_executes_end_to_end() {
        let plan = s2s_plan();
        let mut ops = build_pipeline(&plan, &CostProfile::default(), AggRole::Final).unwrap();
        assert_eq!(ops.len(), 3);
        let direct = run_chain(&mut ops, input_batch(&plan));
        assert!(direct.is_empty(), "aggregation holds state until close");
        let mut out = Vec::new();
        for op in &mut ops {
            op.on_watermark(secs(10.0), &mut out);
        }
        let rows: Vec<Record> = out.iter().flat_map(Batch::to_records).collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[3], Value::F64(200.0)); // avg of 100,300
    }

    #[test]
    fn cost_profile_overrides_defaults() {
        let plan = s2s_plan();
        let profile = CostProfile::from_models(vec![
            CostModel::fixed(0.1),
            CostModel::fixed(3.4),
            CostModel::fixed(24.0),
        ]);
        let ops = build_pipeline(&plan, &profile, AggRole::Final).unwrap();
        assert!((ops[1].cost_us() - 3.4).abs() < 1e-12);
        assert!((ops[2].cost_us() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn defaults_are_state_dependent_for_hash_ops() {
        let c = default_cost(OpKind::GroupAggregate);
        assert!(c.cost_us(100_000) > c.cost_us(0));
    }
}
