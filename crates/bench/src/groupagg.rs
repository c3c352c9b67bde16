//! Group-aggregate throughput by key shape for the perf trajectory.
//!
//! Same workloads as the `group_agg` criterion group. The `str` and `dict`
//! arms run the LogAnalytics-style windowed group-by (tenant × stat name
//! keys, Sum/Avg/Max over the stat column) over structured telemetry epochs,
//! keyed off plain string columns and off native dictionary columns. The
//! `wide_int` arm is the `s2s` keyed-boundary shape, where the table's
//! memory layout rather than its arithmetic sets the rate: two 64-bit keys,
//! 160 k groups that see two rows each, spread by the SP tier's `Ring` over
//! 32 operators that take turns on ~55-row batches. This runner produces
//! the machine-readable `group_agg` series in `BENCH_throughput.json`.

use std::collections::HashMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use streamkit::agg::{AggKind, AggSpec};
use streamkit::batch::{Batch, Column};
use streamkit::ops::{AggRole, CostModel, EmitMode, GroupAggregateOp, Operator};
use streamkit::schema::{DataType, Field, Schema, SchemaRef};
use streamkit::shard::Ring;
use streamkit::window::TumblingWindow;
use telemetry::loganalytics::{structured_log_schema, LogConfig, LogGenerator};

use crate::measure::{best_secs, run_op, run_op_set};

/// Which physical layout the group keys arrive in.
#[derive(Debug, Clone, Copy)]
pub enum GroupKeyLayout {
    /// Plain `Column::Str` keys (the pre-dictionary batch baseline).
    Str,
    /// Native `Column::Dict` keys.
    Dict,
}

/// The same structured epochs in both key layouts.
pub struct StructuredEpochs {
    /// Native dictionary key columns.
    pub dict: Vec<Batch>,
    /// The identical rows with keys materialised as plain strings.
    pub str: Vec<Batch>,
}

/// Generates `n` structured LogAnalytics epochs (deterministic seed) in
/// both key layouts.
pub fn structured_epochs(n: i64) -> StructuredEpochs {
    let mut gen = LogGenerator::new(LogConfig {
        scale: 0.5,
        ..Default::default()
    });
    let dict: Vec<Batch> = (0..n)
        .map(|e| gen.generate_structured_epoch_batch(e * 1_000_000, 1.0))
        .collect();
    let str: Vec<Batch> = dict
        .iter()
        .map(|b| {
            let mut plain = b.clone();
            plain.dict_decode();
            plain
        })
        .collect();
    StructuredEpochs { dict, str }
}

/// Builds the LogAnalytics-style aggregation: group by (tenant, stat_name),
/// fold Sum/Avg/Max over the stat column in 10-second windows.
pub fn build_group_op(_layout: GroupKeyLayout) -> Box<dyn Operator> {
    // The operator is layout-agnostic — the layout lives in the batches —
    // but taking it as a parameter keeps call sites explicit about which
    // arm they measure.
    Box::new(GroupAggregateOp::new(
        vec![0, 1],
        vec![
            AggSpec::new(AggKind::Sum, 2, "sum_stat"),
            AggSpec::new(AggKind::Avg, 2, "avg_stat"),
            AggSpec::new(AggKind::Max, 2, "max_stat"),
        ],
        &structured_log_schema(),
        TumblingWindow::new(10_000_000),
        EmitMode::OnWindowClose,
        AggRole::Final,
        CostModel::fixed(1.0),
    ))
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
    let epochs = structured_epochs(4);
    let rows: u64 = epochs.dict.iter().map(|b| b.len() as u64).sum();

    let time = |layout: GroupKeyLayout, batches: &[Batch]| -> f64 {
        let mut op = build_group_op(layout);
        run_op(op.as_mut(), batches); // warm-up
        let samples: Vec<f64> = (0..iters.max(1))
            .map(|_| {
                let start = Instant::now();
                let emitted = run_op(op.as_mut(), batches);
                let dt = start.elapsed().as_secs_f64();
                assert!(emitted > 0, "the aggregation must emit results");
                dt
            })
            .collect();
        best_secs(samples)
    };

    let str_secs = time(GroupKeyLayout::Str, &epochs.str);
    let dict_secs = time(GroupKeyLayout::Dict, &epochs.dict);
    let str_rps = rows as f64 / str_secs;
    let dict_rps = rows as f64 / dict_secs;

    let WideIntWorkload { mut ops, traffic } = wide_int_workload();
    let wide_rows: u64 = traffic.iter().map(|(_, b)| b.len() as u64).sum();
    run_op_set(&mut ops, &traffic); // warm-up
    let wide_secs = best_secs(
        (0..iters.max(1))
            .map(|_| {
                let start = Instant::now();
                let emitted = run_op_set(&mut ops, &traffic);
                let dt = start.elapsed().as_secs_f64();
                assert_eq!(emitted as u64 * WIDE_EPOCHS as u64, wide_rows);
                dt
            })
            .collect(),
    );
    let wide_rps = wide_rows as f64 / wide_secs;
    let reference_secs = best_secs(
        (0..iters.max(1))
            .map(|_| {
                let start = Instant::now();
                let groups = std_map_reference(ops.len(), &traffic);
                let dt = start.elapsed().as_secs_f64();
                assert_eq!(groups as u64 * WIDE_EPOCHS as u64, wide_rows);
                dt
            })
            .collect(),
    );
    GroupAggResult {
        pipeline: "LogAnalytics group-by (tenant, stat_name) Sum/Avg/Max".into(),
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
