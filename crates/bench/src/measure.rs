//! Shared measurement harness for the throughput runners — one copy of the
//! drive loops and the timing estimator behind every series in
//! `BENCH_throughput.json`.

use std::time::Instant;

use streamkit::batch::Batch;
use streamkit::ops::Operator;

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

/// Best-of-`iters` seconds of each arm, timed in turn: one untimed round of
/// every arm, then `iters` rounds of one iteration per arm. A host phase
/// change between rounds then slows every arm alike instead of moving the
/// ratio of two arms run one after the other.
pub fn best_secs_interleaved(iters: u32, arms: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut timed: Vec<_> = arms
        .iter_mut()
        .map(|arm| {
            move || {
                let start = Instant::now();
                arm();
                start.elapsed().as_secs_f64()
            }
        })
        .collect();
    let mut arms: Vec<&mut dyn FnMut() -> f64> = timed
        .iter_mut()
        .map(|arm| arm as &mut dyn FnMut() -> f64)
        .collect();
    best_of_interleaved(iters, &mut arms)
}

/// [`best_secs_interleaved`] for arms that time themselves and return the
/// seconds, so an arm's set-up stays outside its timing.
pub fn best_of_interleaved(iters: u32, arms: &mut [&mut dyn FnMut() -> f64]) -> Vec<f64> {
    for arm in arms.iter_mut() {
        arm();
    }
    let mut best = vec![f64::INFINITY; arms.len()];
    for _ in 0..iters.max(1) {
        for (arm, best) in arms.iter_mut().zip(&mut best) {
            *best = best.min(arm());
        }
    }
    best
}
