//! Shared measurement harness for the throughput runners and criterion
//! benches — one copy of the drive loops and the timing estimator, so the
//! JSON-trajectory numbers and the interactive benches always measure the
//! same thing.

use streamkit::batch::Batch;
use streamkit::ops::Operator;
use streamkit::physical::drain_windows;

/// Drives one operator over the batches, closes every window, resets the
/// operator, and returns the emitted row count.
pub fn run_op(op: &mut dyn Operator, batches: &[Batch]) -> usize {
    let mut sink = Vec::new();
    for batch in batches {
        op.process_batch(batch.clone(), &mut sink);
    }
    op.on_watermark(streamkit::time::TS_MAX, &mut sink);
    let emitted = sink.iter().map(Batch::len).sum();
    op.reset();
    emitted
}

/// Drives a set of independent operators over `(operator, batch)` traffic
/// in arrival order — the way a shard host's pipelines take turns — closes
/// every window, resets the operators, and returns the emitted row count.
pub fn run_op_set(ops: &mut [Box<dyn Operator>], traffic: &[(usize, Batch)]) -> usize {
    let mut sink = Vec::new();
    for (op, batch) in traffic {
        ops[*op].process_batch(batch.clone(), &mut sink);
    }
    for op in ops.iter_mut() {
        op.on_watermark(streamkit::time::TS_MAX, &mut sink);
        op.reset();
    }
    sink.iter().map(Batch::len).sum()
}

/// Drives a whole operator chain over the batches, drains all windows,
/// resets every operator, and returns the emitted row count.
pub fn run_chain(ops: &mut [Box<dyn Operator>], batches: &[Batch]) -> usize {
    let mut emitted = 0;
    for batch in batches {
        let mut cur = vec![batch.clone()];
        for op in ops.iter_mut() {
            let mut next = Vec::new();
            for b in cur {
                op.process_batch(b, &mut next);
            }
            cur = next;
        }
        emitted += cur.iter().map(Batch::len).sum::<usize>();
    }
    emitted += drain_windows(ops, streamkit::time::TS_MAX)
        .iter()
        .map(Batch::len)
        .sum::<usize>();
    for op in ops.iter_mut() {
        op.reset();
    }
    emitted
}

/// Best-of-N timing: scheduler noise and cache pollution only ever slow an
/// iteration down, so the minimum is the stable estimator the regression
/// gate needs (a median over few samples swings far more on shared
/// hardware).
pub fn best_secs(samples: Vec<f64>) -> f64 {
    samples
        .into_iter()
        .min_by(|a, b| a.partial_cmp(b).expect("finite timings"))
        .expect("at least one sample")
}
