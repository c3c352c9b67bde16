//! Group-aggregate kernel throughput by key shape.
//!
//! The LogAnalytics-style hot path — a windowed group-by over
//! low-cardinality string keys (tenant, stat name) folding Sum/Avg/Max over
//! a numeric column — through the vectorized `GroupAggregateOp`, keyed two
//! ways over identical data:
//!
//! * **str**: plain `Column::Str` keys (the PR-2 batch baseline layout);
//! * **dict**: native `Column::Dict` keys, which resolve rows through the
//!   combined-code slot cache instead of hashing byte keys.
//!
//! The dict path is the acceptance target for the columnar group-by fast
//! path: ≥ 1.5× the str path's rows/second.
//!
//! * **wide_int**: the `s2s` keyed-boundary shape — two 64-bit keys, 160 k
//!   groups over 32 operators taking turns on ~55-row batches — where the
//!   group table's memory layout sets the rate.
//!
//! Set `BENCH_SMOKE=1` for a reduced-sample CI run.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use jarvis_bench::groupagg::{
    build_group_op, structured_epochs, wide_int_workload, GroupKeyLayout, WideIntWorkload,
};
use jarvis_bench::measure::{run_op, run_op_set};

fn bench_group_agg(c: &mut Criterion) {
    let epochs = structured_epochs(4);
    let rows: u64 = epochs.dict.iter().map(|b| b.len() as u64).sum();

    let mut group = c.benchmark_group("group_agg");
    group.throughput(Throughput::Elements(rows));
    if std::env::var_os("BENCH_SMOKE").is_some() {
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(50));
        group.measurement_time(Duration::from_millis(300));
    }

    group.bench_function("loganalytics_keys/str", |b| {
        let mut op = build_group_op(GroupKeyLayout::Str);
        b.iter(|| run_op(black_box(op.as_mut()), &epochs.str));
    });

    group.bench_function("loganalytics_keys/dict", |b| {
        let mut op = build_group_op(GroupKeyLayout::Dict);
        b.iter(|| run_op(black_box(op.as_mut()), &epochs.dict));
    });

    group.finish();

    let WideIntWorkload { mut ops, traffic } = wide_int_workload();
    let rows: u64 = traffic.iter().map(|(_, b)| b.len() as u64).sum();
    let mut group = c.benchmark_group("group_agg");
    group.throughput(Throughput::Elements(rows));
    if std::env::var_os("BENCH_SMOKE").is_some() {
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(50));
        group.measurement_time(Duration::from_millis(300));
    }

    group.bench_function("s2s_keys/wide_int", |b| {
        b.iter(|| run_op_set(black_box(&mut ops), &traffic));
    });
    group.finish();
}

criterion_group!(benches, bench_group_agg);
criterion_main!(benches);
