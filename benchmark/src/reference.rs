//! The reference the session's results are checked against, computed by the
//! benchmark outside the session: the same generated batches through one
//! final-role operator chain per source, then a window drain — with no
//! shards, wire, runtime or transport. Run on one thread it is also the
//! single-threaded baseline of the same job.

use std::thread;
use std::time::Instant;

use jarvis_core::calibration::EPOCH_SECS;
use jarvis_core::deploy::ExactnessDigest;
use jarvis_core::engine::block::EpochSource;
use streamkit::batch::Batch;
use streamkit::ops::{AggRole, Operator};
use streamkit::physical::{build_pipeline, drain_windows_rows};
use streamkit::record::Record;
use streamkit::schema::SchemaRef;
use streamkit::time::{Ts, TS_MAX};

use crate::workloads::Workload;

/// Result rows of the reference pass and how fast the chain produced them.
pub struct Reference {
    pub digest: ExactnessDigest,
    pub input_rows: u64,
    /// Seconds spent inside operator calls (generation excluded).
    pub chain_s: f64,
}

/// Event time at which `epoch` starts, as the session computes it.
pub fn epoch_start(epoch: u64) -> Ts {
    (epoch as f64 * EPOCH_SECS * 1e6) as Ts
}

/// Pushes `batch` through `ops`, returning what leaves the chain.
pub fn run_chain(ops: &mut [Box<dyn Operator>], batch: Batch) -> Vec<Batch> {
    let mut batches = vec![batch];
    for op in ops.iter_mut() {
        let mut next = Vec::new();
        for b in batches.drain(..) {
            op.process_batch(b, &mut next);
        }
        batches = next;
    }
    batches
}

/// Runs `epochs` epochs of the workload's input through the reference
/// chains. Uses the query as written (`logical_plan()`), not the planner's
/// rewritten copy the session executes. The chains of different sources
/// share nothing, so `threads` > 1 only splits the sources between threads
/// to shorten the check; `chain_s` stays the sum of the threads' in-operator
/// seconds, i.e. what one thread would have spent.
pub fn compute(w: &Workload, seed: u64, epochs: u64, threads: usize) -> Reference {
    let adapter = w.adapter(seed);
    let plan = adapter.logical_plan();
    let costs = adapter.costs();
    let input_schema = plan.edge_schemas().expect("paper queries are valid")[0].clone();
    let mut sources: Vec<_> = (0..w.sources)
        .map(|i| {
            let chain = build_pipeline(&plan, &costs, AggRole::Final).expect("paper queries build");
            (adapter.generator(i, w.sources), chain)
        })
        .collect();
    let per_thread = sources.len().div_ceil(threads.max(1));
    let parts: Vec<(Vec<Record>, u64, f64)> = thread::scope(|scope| {
        let workers: Vec<_> = sources
            .chunks_mut(per_thread)
            .map(|part| scope.spawn(|| run_sources(part, &input_schema, epochs)))
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("reference thread does not panic"))
            .collect()
    });
    let mut rows = Vec::new();
    let (mut input_rows, mut chain_s) = (0, 0.0);
    for (part_rows, part_input, part_s) in parts {
        rows.extend(part_rows);
        input_rows += part_input;
        chain_s += part_s;
    }
    Reference {
        digest: ExactnessDigest::of_rows(&rows),
        input_rows,
        chain_s,
    }
}

type SourceChain = (Box<dyn EpochSource>, Vec<Box<dyn Operator>>);

/// One thread's share of the reference pass: result rows, input rows and
/// seconds inside operator calls.
fn run_sources(
    sources: &mut [SourceChain],
    input_schema: &SchemaRef,
    epochs: u64,
) -> (Vec<Record>, u64, f64) {
    let mut rows = Vec::new();
    let mut input_rows = 0u64;
    let mut chain_s = 0.0;
    for epoch in 0..epochs {
        let now = epoch_start(epoch);
        for (generator, chain) in sources.iter_mut() {
            let mut batch = generator.generate_epoch_batch(now, EPOCH_SECS);
            batch.relabel(input_schema);
            input_rows += batch.len() as u64;
            let t = Instant::now();
            let out = run_chain(chain, batch);
            chain_s += t.elapsed().as_secs_f64();
            rows.extend(out.iter().flat_map(Batch::to_records));
        }
    }
    let t = Instant::now();
    for (_, chain) in sources.iter_mut() {
        rows.extend(drain_windows_rows(chain, TS_MAX));
    }
    chain_s += t.elapsed().as_secs_f64();
    (rows, input_rows, chain_s)
}
