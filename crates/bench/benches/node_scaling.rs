//! Multi-node SP scaling on the group-aggregate-heavy pipeline.
//!
//! Runs the S2SProbe chain (`W -> F -> G+R`) over a high-cardinality
//! Pingmesh stream through the consistent-hash split at 1, 2, and 4 SP
//! nodes over a fixed 4-shard ring, timing the one-router critical-path
//! model (one serial dispatch pass incl. the `NetPayload` wire encode for
//! remote nodes + slowest node incl. decode) exactly as `repro bench`'s
//! `node_scaling` series does. The acceptance target for the multi-node
//! tier is ≥ 1.5× the single-node throughput at 4 nodes. Set
//! `BENCH_SMOKE=1` for a reduced-sample CI run.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use jarvis_bench::nodescale::{run_node_iter, suffix_schemas, NODE_RING};
use jarvis_bench::shardscale::{build_sharded_chain, shard_scaling_epochs};

fn bench_node_scaling(c: &mut Criterion) {
    let batches = shard_scaling_epochs(4);
    let rows: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let schemas = suffix_schemas();

    let mut group = c.benchmark_group("node_scaling");
    group.throughput(Throughput::Elements(rows));
    if std::env::var_os("BENCH_SMOKE").is_some() {
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(50));
        group.measurement_time(Duration::from_millis(300));
    }

    for n in [1usize, 2, 4] {
        group.bench_function(format!("s2s_group_heavy/{n}_nodes"), |b| {
            let mut chain = build_sharded_chain(NODE_RING);
            b.iter(|| run_node_iter(black_box(&mut chain), &schemas, n, &batches));
        });
    }

    group.finish();
}

criterion_group!(benches, bench_node_scaling);
criterion_main!(benches);
