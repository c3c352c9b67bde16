//! Exact work counters: allocations per shipped group-state entry, counted
//! by a global allocator and pinned by ceilings.
//!
//! Timing on a shared host is noisy; allocation counts are not. Each path
//! below runs on fixed input (Pingmesh generator seed 17) and reads what
//! the counting allocator saw, per entry:
//!
//! - **ship** — one S2S source epoch's partial state through the Jarvis
//!   path: `take_state_delta` → `Ring::split_state` (4 shards) → `netwire`
//!   encode → decode → `merge_state` into final-role operators;
//! - **checkpoint** — the SP side's snapshot of those operators:
//!   `checkpoint_state` → `netwire` encode;
//!
//! and per input row of the LogAnalytics text path (generator seed 17, the
//! second of two 1 s epochs, so the parse dictionaries are warm):
//!
//! - **log** — the raw-line generator, then each operator of the query
//!   (`W → M[TrimLower] → F → M[ParseJobStats] → M[WidthBucket] → G+R`),
//!   counted one stage at a time, with the `G+R` in the Partial role a
//!   source runs under data-level partitioning.
//!
//! Each ceiling is 1 % above the reading it was set from, and the counts
//! are the same in debug and release builds. A change that lowers a count
//! lowers its ceiling with it; one that raises a count says why.
//!
//! This file holds one `#[test]`: the counters are process-wide, and a
//! second test running beside it would count into them.

use std::alloc::System;

use stats_alloc::{Region, StatsAlloc, INSTRUMENTED_SYSTEM};

use jarvis::core::engine::netwire::{decode_shard_payload, encode_shard_payload};
use jarvis::core::engine::NetPayload;
use jarvis::streamkit::batch::Batch;
use jarvis::streamkit::ops::{AggRole, Operator};
use jarvis::streamkit::physical::{build_pipeline, CostProfile};
use jarvis::streamkit::shard::Ring;
use jarvis::telemetry::loganalytics::{LogConfig, LogGenerator};
use jarvis::telemetry::pingmesh::{PingmeshConfig, PingmeshGenerator};

#[global_allocator]
static GLOBAL: &StatsAlloc<System> = &INSTRUMENTED_SYSTEM;

/// Allocations per entry on the ship path.
const SHIP_ALLOCS_PER_ENTRY: f64 = 2.077;
/// Allocations per entry on the checkpoint path.
const CHECKPOINT_ALLOCS_PER_ENTRY: f64 = 1.028;

/// Allocations per input row of the LogAnalytics text path, per stage: the
/// generator, then the query's operators in plan order. Each stage before the
/// `G+R` allocates a handful of times per batch (8,735 rows): 33 in all,
/// 0.0038 a row, where building a `String` per line and per trimmed line
/// cost 2.756 a row. The Partial `G+R` folds the epoch into its open window
/// with 2 allocations.
const LOG_ALLOCS_PER_ROW: [(&str, f64); 7] = [
    ("gen", 0.001388),
    ("W", 0.000116),
    ("M[TrimLower]", 0.000463),
    ("F", 0.000809),
    ("M[ParseJobStats]", 0.000694),
    ("M[WidthBucket]", 0.000347),
    ("G+R", 0.000232),
];

/// Virtual shards the partial is split over.
const RING: usize = 4;

/// The S2SProbe G+R in `role`, and the group-key columns of its input.
fn s2s_group(role: AggRole) -> (Vec<Box<dyn Operator>>, usize, Vec<usize>) {
    let plan = jarvis::telemetry::queries::s2s_probe();
    let (boundary, keys) = plan.shard_boundary().expect("S2SProbe has a G+R");
    let mut ops = build_pipeline(&plan, &CostProfile::default(), role).expect("valid plan");
    ops.truncate(boundary + 1);
    (ops, boundary, keys)
}

/// Counts the LogAnalytics text path's allocations per input row, stage by
/// stage, and checks each against its ceiling.
fn log_text_path_allocates_within_its_budget() {
    let plan = jarvis::telemetry::queries::log_analytics();
    let (boundary, _) = plan.shard_boundary().expect("LogAnalytics has a G+R");
    let mut ops =
        build_pipeline(&plan, &CostProfile::default(), AggRole::Partial).expect("valid plan");
    ops.truncate(boundary + 1);
    assert_eq!(ops.len() + 1, LOG_ALLOCS_PER_ROW.len());
    let mut gen = LogGenerator::new(LogConfig {
        seed: 17,
        ..Default::default()
    });
    // One epoch through every stage; `counts` gets each stage's allocations.
    let mut run = |epoch: i64, counts: &mut Vec<usize>| {
        let mut region = Region::new(GLOBAL);
        let mut batches: Vec<Batch> = vec![gen.generate_epoch_batch(epoch * 1_000_000, 1.0)];
        let rows = batches[0].len();
        counts.push(region.change_and_reset().allocations);
        for op in &mut ops {
            let mut next = Vec::new();
            for b in batches {
                op.process_batch(b, &mut next);
            }
            batches = next;
            counts.push(region.change_and_reset().allocations);
        }
        rows
    };
    let mut counts = Vec::with_capacity(LOG_ALLOCS_PER_ROW.len());
    run(0, &mut counts);
    counts.clear();
    let rows = run(1, &mut counts);
    let per_row = |allocations: usize| allocations as f64 / rows as f64;
    for ((stage, ceiling), &count) in LOG_ALLOCS_PER_ROW.iter().zip(&counts) {
        println!(
            "log {stage:>16}: {:.6} allocs/row ({count} over {rows} rows), ceiling {ceiling}",
            per_row(count)
        );
    }
    let total = per_row(counts.iter().sum());
    println!("log text path: {total:.6} allocs/row");
    for ((stage, ceiling), &count) in LOG_ALLOCS_PER_ROW.iter().zip(&counts) {
        assert!(
            per_row(count) <= *ceiling,
            "log {stage}: {:.6} allocs/row over the {ceiling} ceiling",
            per_row(count)
        );
    }
}

#[test]
fn shipped_state_allocates_within_its_budget() {
    let (mut source, boundary, keys) = s2s_group(AggRole::Partial);
    let mut gen = PingmeshGenerator::new(PingmeshConfig {
        seed: 17,
        ..Default::default()
    });
    let mut batches = vec![gen.generate_epoch_batch(0, 1.0)];
    for op in &mut source {
        let mut next = Vec::new();
        for b in batches {
            op.process_batch(b, &mut next);
        }
        batches = next;
    }
    let ring = Ring::new(RING, keys);
    let mut finals: Vec<Box<dyn Operator>> = (0..RING)
        .map(|_| s2s_group(AggRole::Final).0.swap_remove(boundary))
        .collect();

    // Ship: every stage counted, each reset after it.
    let mut region = Region::new(GLOBAL);
    let delta = source[boundary]
        .take_state_delta()
        .expect("the partial G+R holds state");
    let entries = delta.entry_count();
    let take = region.change_and_reset();
    let parts = ring.split_state(delta);
    let split = region.change_and_reset();
    let frames: Vec<_> = parts
        .into_iter()
        .map(|(shard, delta)| {
            encode_shard_payload(&NetPayload::ShardState {
                shard: shard as u32,
                epoch: 0,
                source: 0,
                rel: 0,
                delta,
            })
        })
        .collect();
    let encode = region.change_and_reset();
    let decoded: Vec<_> = frames
        .into_iter()
        .map(|frame| decode_shard_payload(frame, &[]).expect("a state frame decodes"))
        .collect();
    let decode = region.change_and_reset();
    for payload in decoded {
        let NetPayload::ShardState { shard, delta, .. } = payload else {
            panic!("a state frame decodes to state");
        };
        finals[shard as usize].merge_state(delta);
    }
    let merge = region.change_and_reset();

    // Checkpoint: snapshot and encode.
    let snapshots: Vec<_> = finals
        .iter()
        .enumerate()
        .filter_map(|(shard, op)| {
            let delta = op.checkpoint_state()?;
            Some(encode_shard_payload(&NetPayload::ShardState {
                shard: shard as u32,
                epoch: 0,
                source: 0,
                rel: 0,
                delta,
            }))
        })
        .collect();
    let checkpoint = region.change();
    drop(snapshots);

    let per_entry = |allocations: usize| allocations as f64 / entries as f64;
    let stages = [
        ("take", take),
        ("split", split),
        ("encode", encode),
        ("decode", decode),
        ("merge", merge),
    ];
    let ship: usize = stages.iter().map(|(_, s)| s.allocations).sum();
    for (stage, stats) in stages {
        println!(
            "ship {stage:>6}: {:.4} allocs/entry, {} B allocated",
            per_entry(stats.allocations),
            stats.bytes_allocated
        );
    }
    println!(
        "{entries} entries: ship {:.4} allocs/entry, checkpoint {:.4} allocs/entry ({} B)",
        per_entry(ship),
        per_entry(checkpoint.allocations),
        checkpoint.bytes_allocated
    );
    assert!(entries > 1000, "an epoch's partial holds {entries} entries");
    assert!(
        per_entry(ship) <= SHIP_ALLOCS_PER_ENTRY,
        "ship path: {:.4} allocs/entry over the {SHIP_ALLOCS_PER_ENTRY} ceiling",
        per_entry(ship)
    );
    assert!(
        per_entry(checkpoint.allocations) <= CHECKPOINT_ALLOCS_PER_ENTRY,
        "checkpoint path: {:.4} allocs/entry over the {CHECKPOINT_ALLOCS_PER_ENTRY} ceiling",
        per_entry(checkpoint.allocations)
    );

    log_text_path_allocates_within_its_budget();
}
