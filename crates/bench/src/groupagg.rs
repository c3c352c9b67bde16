//! Group-aggregate throughput by key shape for the perf trajectory.
//!
//! The `str` and `dict` arms run the LogAnalytics query's own `G+R`
//! (Listing 3: count per `(tenant, stat_name, stat)` in 10-second windows,
//! `stat` being the `I64` `WidthBucket` output), built from
//! `telemetry::queries::log_analytics()` at its keyed boundary. Its input is
//! structured telemetry epochs after the plan's own `M[WidthBucket]`,
//! applied before timing starts: the `dict` arm keys off native dictionary
//! columns, the `str` arm off the same rows with their dictionaries
//! decoded. The `wide_int` arm is the `s2s` keyed-boundary shape, where the
//! table's memory layout rather than its arithmetic sets the rate: two
//! 64-bit keys, 160 k groups that see two rows each, spread by the SP tier's
//! `Ring` over 32 operators that take turns on ~55-row batches. This runner
//! produces the machine-readable `group_agg` series in
//! `BENCH_throughput.json`.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use streamkit::agg::{AggKind, AggSpec};
use streamkit::batch::{Batch, Column};
use streamkit::ops::{AggRole, CostModel, EmitMode, GroupAggregateOp, Operator};
use streamkit::physical::{build_pipeline, CostProfile};
use streamkit::schema::{DataType, Field, Schema, SchemaRef};
use streamkit::shard::Ring;
use streamkit::window::TumblingWindow;
use telemetry::loganalytics::{LogConfig, LogGenerator};
use telemetry::queries::log_analytics;

use crate::measure::{best_secs_interleaved, run_op, run_op_set};

/// Generates `n` structured LogAnalytics epochs (deterministic seed), with
/// persistent or per-epoch dictionaries.
pub fn structured_epochs(n: i64, persistent_dicts: bool) -> Vec<Batch> {
    let mut gen = LogGenerator::new(LogConfig {
        scale: 0.5,
        persistent_dicts,
        ..Default::default()
    });
    (0..n)
        .map(|e| gen.generate_structured_epoch_batch(e * 1_000_000, 1.0))
        .collect()
}

/// The LogAnalytics query's `G+R` (Final role) as the plan builds it, and
/// `epochs` after the plan's `M[WidthBucket]`: the operator and the rows it
/// folds on the real query.
pub fn log_group_by(epochs: &[Batch]) -> (Box<dyn Operator>, Vec<Batch>) {
    let plan = log_analytics();
    let (at, _) = plan.shard_boundary().expect("LogAnalytics has a G+R");
    let mut ops = build_pipeline(&plan, &CostProfile::default(), AggRole::Final)
        .expect("LogAnalytics builds");
    let group = ops.remove(at);
    let bucket = &mut ops[at - 1];
    let mut input = Vec::new();
    for batch in epochs {
        bucket.process_batch(batch.clone(), &mut input);
    }
    (group, input)
}

/// Runs the operator over the batches and checks it emitted results.
pub fn fold_all(op: &mut dyn Operator, batches: &[Batch]) {
    assert!(run_op(op, batches) > 0, "the aggregation must emit results");
}

/// Sources, ring width, peers per source and epochs of the `wide_int` arm:
/// 8 × 20 000 groups over 8 × 4 operators, each group seen once per epoch.
const WIDE_SOURCES: usize = 8;
const WIDE_SHARDS: usize = 4;
const WIDE_PEERS: u64 = 20_000;
const WIDE_EPOCHS: i64 = 5;
/// Rows a source hands the ring at a time: a 256-row message less the 14 %
/// the `s2s` filter drops, so a shard's part is ~55 rows.
const WIDE_CHUNK: usize = 220;

fn wide_int_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("src", DataType::U64),
        Field::new("dst", DataType::U64),
        Field::new("rtt", DataType::U64),
    ])
}

/// The `wide_int` arm: its operators and the boundary traffic they take
/// turns on.
pub struct WideIntWorkload {
    /// One operator per shard per source, as a shard host builds them.
    pub ops: Vec<Box<dyn Operator>>,
    /// `(operator, batch)` in arrival order: per epoch, every source's peers
    /// in a scrambled order, chunked and split over the ring.
    pub traffic: Vec<(usize, Batch)>,
}

/// Builds the `wide_int` arm (deterministic).
pub fn wide_int_workload() -> WideIntWorkload {
    let schema = wide_int_schema();
    let ops = (0..WIDE_SHARDS * WIDE_SOURCES)
        .map(|_| {
            Box::new(GroupAggregateOp::new(
                vec![0, 1],
                vec![
                    AggSpec::new(AggKind::Avg, 2, "avg_rtt"),
                    AggSpec::new(AggKind::Max, 2, "max_rtt"),
                    AggSpec::new(AggKind::Min, 2, "min_rtt"),
                ],
                &schema,
                TumblingWindow::new(10_000_000),
                EmitMode::OnWindowClose,
                AggRole::Final,
                CostModel::fixed(1.0),
            )) as Box<dyn Operator>
        })
        .collect();
    let ring = Ring::new(WIDE_SHARDS, vec![0, 1]);
    let mut traffic = Vec::new();
    for epoch in 0..WIDE_EPOCHS {
        for source in 0..WIDE_SOURCES {
            // An odd multiplier modulo a power of two visits every peer of
            // the range once, in an order a table cannot prefetch.
            let peers: Vec<u64> = (0..WIDE_PEERS.next_power_of_two())
                .map(|i| (i * 0x9E37 + epoch as u64 * 0x51) % WIDE_PEERS.next_power_of_two())
                .filter(|&p| p < WIDE_PEERS)
                .collect();
            for chunk in peers.chunks(WIDE_CHUNK) {
                let batch = Batch {
                    schema: schema.clone(),
                    timestamps: vec![epoch * 1_000_000; chunk.len()],
                    columns: vec![
                        Column::U64(vec![0x0A00_0000 + ((source as u64) << 16); chunk.len()]),
                        Column::U64(chunk.iter().map(|p| 0x0A80_0000 + p * 0x101).collect()),
                        Column::U64(chunk.iter().map(|p| 200 + p % 977).collect()),
                    ],
                };
                for (shard, part) in ring.split_batch(0, batch) {
                    traffic.push((shard * WIDE_SOURCES + source, part));
                }
            }
        }
    }
    WideIntWorkload { ops, traffic }
}

/// Result of one group-aggregate measurement across key shapes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupAggResult {
    /// Workload identifier.
    pub pipeline: String,
    /// Rows pushed through each path per iteration.
    pub rows: u64,
    /// Measured iterations per path.
    pub iters: u32,
    /// Str-keyed throughput, rows/second (best over iterations).
    pub str_rows_per_sec: f64,
    /// Str-keyed cost, nanoseconds/row.
    pub str_ns_per_row: f64,
    /// Dict-keyed throughput, rows/second (best over iterations).
    pub dict_rows_per_sec: f64,
    /// Dict-keyed cost, nanoseconds/row.
    pub dict_ns_per_row: f64,
    /// dict / str speedup factor.
    pub speedup: f64,
    /// Rows pushed through the `wide_int` arm per iteration.
    pub wide_int_rows: u64,
    /// Wide-int-keyed throughput, rows/second (best over iterations).
    pub wide_int_rows_per_sec: f64,
    /// Wide-int-keyed cost, nanoseconds/row.
    pub wide_int_ns_per_row: f64,
    /// Rate of the operator over the rate of [`std_map_reference`] on the
    /// same traffic: the machine-independent form the regression gate
    /// compares. Both sides pay the same cold memory for the same groups,
    /// so the ratio moves with the table's layout and kernels, not with
    /// the host's cache share.
    pub wide_int_vs_std_map: f64,
}

/// A yardstick for the `wide_int` traffic that misses memory the way the
/// operator does: one `std` hash map per operator from the key pair to
/// `(sum, count, max, min)`, counted at the end. It knows its key and value
/// types and builds no result batches, so the operator is not expected to
/// match it — only to keep its distance. Returns the group count.
pub fn std_map_reference(n_ops: usize, traffic: &[(usize, Batch)]) -> usize {
    let mut maps = vec![HashMap::<(u64, u64), (f64, u64, f64, f64)>::new(); n_ops];
    for (op, batch) in traffic {
        let [Column::U64(src), Column::U64(dst), Column::U64(rtt)] = &batch.columns[..] else {
            panic!("the wide_int arm's batches are three U64 columns");
        };
        for ((&s, &d), &v) in src.iter().zip(dst).zip(rtt) {
            let v = v as f64;
            let g = maps[*op]
                .entry((s, d))
                .or_insert((0.0, 0, f64::NEG_INFINITY, f64::INFINITY));
            *g = (g.0 + v, g.1 + 1, g.2.max(v), g.3.min(v));
        }
    }
    maps.iter().map(HashMap::len).sum()
}

/// Measures the group-aggregate through every key shape. `iters` timed
/// iterations per arm.
pub fn bench_group_agg(iters: u32) -> GroupAggResult {
    let (mut dict_op, dict) = log_group_by(&structured_epochs(4, true));
    let mut str = dict.clone();
    for batch in &mut str {
        batch.dict_decode();
    }
    let mut str_op = log_group_by(&[]).0;
    let rows: u64 = dict.iter().map(|b| b.len() as u64).sum();
    let mut str_arm = || fold_all(str_op.as_mut(), &str);
    let mut dict_arm = || fold_all(dict_op.as_mut(), &dict);
    let secs = best_secs_interleaved(iters, &mut [&mut str_arm, &mut dict_arm]);
    let str_rps = rows as f64 / secs[0];
    let dict_rps = rows as f64 / secs[1];

    let WideIntWorkload { mut ops, traffic } = wide_int_workload();
    let wide_rows: u64 = traffic.iter().map(|(_, b)| b.len() as u64).sum();
    let n_ops = ops.len();
    let mut wide_arm = || {
        let emitted = run_op_set(&mut ops, &traffic);
        assert_eq!(emitted as u64 * WIDE_EPOCHS as u64, wide_rows);
    };
    let mut reference_arm = || {
        let groups = std_map_reference(n_ops, &traffic);
        assert_eq!(groups as u64 * WIDE_EPOCHS as u64, wide_rows);
    };
    let wide = best_secs_interleaved(iters, &mut [&mut wide_arm, &mut reference_arm]);
    let (wide_secs, reference_secs) = (wide[0], wide[1]);
    let wide_rps = wide_rows as f64 / wide_secs;
    GroupAggResult {
        pipeline: "LogAnalytics G+R: count by (tenant, stat_name, stat bucket)".into(),
        rows,
        iters: iters.max(1),
        str_rows_per_sec: str_rps,
        str_ns_per_row: 1e9 / str_rps,
        dict_rows_per_sec: dict_rps,
        dict_ns_per_row: 1e9 / dict_rps,
        speedup: dict_rps / str_rps,
        wide_int_rows: wide_rows,
        wide_int_rows_per_sec: wide_rps,
        wide_int_ns_per_row: 1e9 / wide_rps,
        wide_int_vs_std_map: reference_secs / wide_secs,
    }
}
