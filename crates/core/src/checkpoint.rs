//! Checkpointing of intermediate state (paper §IV-E, "Fault tolerance").
//!
//! The data source periodically checkpoints the mergeable state its stateful
//! operators have accumulated for the current window (plus the control-proxy
//! load factors). After a source failure, the stream processor merges the
//! checkpoint and processes the remaining data for the window; after a
//! restart, the source resumes with its adapted load factors instead of
//! re-converging from scratch.
//!
//! This module covers the **source side**. The distributed SP tier has its
//! own epoch-aligned checkpoint path: each `jarvis-node` executor cuts a
//! snapshot of its open windows at checkpoint boundaries — every stateful
//! operator via the non-destructive `Operator::checkpoint_state` (which,
//! unlike [`take_state_delta`](streamkit::ops::Operator::take_state_delta),
//! also covers final-role aggregations) — and ships it back as `Ckpt`
//! frames. Closed windows are not in it: their rows already left as
//! `Results` frames at the barrier that closed them, and the ack that
//! commits the checkpoint commits them too. The coordinator keeps the last
//! acked snapshot per shard and a replay buffer of post-checkpoint
//! traffic, which recovery re-ships to a reconnecting executor or to
//! survivors adopting the lost shards (see [`crate::deploy::OnNodeLoss`]).
//! The same §IV-E trade-off applies: a shorter interval spends
//! steady-state checkpoint bytes to shrink the replay a failure has to pay
//! for.

use serde::{Deserialize, Serialize};
use streamkit::ops::StatePartial;

use crate::engine::source::SourceEngine;

/// A source-side checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Stateful-operator snapshots as `(stage index, state)`.
    pub states: Vec<(usize, StatePartial)>,
    /// Control-proxy load factors at checkpoint time.
    pub load_factors: Vec<f64>,
}

impl Checkpoint {
    /// Total checkpoint payload size in bytes (network-cost accounting —
    /// §IV-E notes checkpointing frequency trades off against traffic).
    pub fn wire_bytes(&self) -> usize {
        self.states
            .iter()
            .map(|(_, s)| s.wire_bytes())
            .sum::<usize>()
            + self.load_factors.len() * 8
    }
}

/// Captures a checkpoint without disturbing live state: partial state is
/// drained from each stateful operator and immediately merged back.
pub fn snapshot(engine: &mut SourceEngine) -> Checkpoint {
    let load_factors = engine.load_factors();
    let mut states = Vec::new();
    for stage in 0..load_factors.len() {
        let op = engine.op_mut(stage);
        if !op.is_stateful() {
            continue;
        }
        if let Some(delta) = op.take_state_delta() {
            op.merge_state(delta.clone());
            states.push((stage, delta));
        }
    }
    Checkpoint {
        states,
        load_factors,
    }
}

/// Restores a checkpoint into a (fresh) source engine: merges the state back
/// and reinstalls the load factors.
pub fn restore(engine: &mut SourceEngine, ckpt: &Checkpoint) {
    for (stage, state) in &ckpt.states {
        engine.op_mut(*stage).merge_state(state.clone());
    }
    engine.set_load_factors(&ckpt.load_factors);
}

/// Applies a failed source's checkpoint directly at the stream processor:
/// the source's replica merges the state so the current window completes
/// from the drain path (returns the merged byte volume for traffic
/// accounting).
pub fn apply_at_sp(
    sp: &mut crate::engine::sp::SpEngine,
    source: usize,
    ckpt: &Checkpoint,
    arrival_secs: f64,
) -> usize {
    let mut bytes = 0;
    for (stage, state) in &ckpt.states {
        bytes += state.wire_bytes();
        sp.deliver(
            source,
            crate::engine::NetPayload::StateDelta {
                stage: *stage,
                delta: state.clone(),
            },
            arrival_secs,
        );
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Scale;
    use crate::engine::block::BuildingBlock;
    use crate::experiment::ScenarioSpec;
    use crate::strategy::StrategyKind;

    fn block(spec: ScenarioSpec, strategy: StrategyKind) -> BuildingBlock {
        let dspec = crate::deploy::Deployment::builder()
            .workload(spec)
            .strategy(strategy)
            .cpu_budget(1.0)
            .spec()
            .unwrap();
        crate::deploy::build_block(&dspec).unwrap().1
    }

    #[test]
    fn snapshot_preserves_live_state() {
        let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
        let mut s = block(spec, StrategyKind::AllSrc);
        // Run a few epochs so the G+R accumulates state (ship interval is 2,
        // so run one epoch past a ship to leave residue).
        for _ in 0..3 {
            s.run_epoch();
        }
        let engine = s.source_mut(0);
        let before = engine.load_factors();
        let ckpt = snapshot(engine);
        assert_eq!(ckpt.load_factors, before);
        // Snapshotting must not clear the operator state: a second snapshot
        // sees the same entries.
        let ckpt2 = snapshot(s.source_mut(0));
        let count = |c: &Checkpoint| c.states.iter().map(|(_, s)| s.entry_count()).sum::<usize>();
        assert_eq!(count(&ckpt), count(&ckpt2));
        assert!(ckpt.wire_bytes() > 0 || count(&ckpt) == 0);
    }

    #[test]
    fn restore_reinstalls_state_and_factors() {
        let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
        let mut s = block(spec.clone(), StrategyKind::AllSrc);
        for _ in 0..3 {
            s.run_epoch();
        }
        let ckpt = snapshot(s.source_mut(0));

        // "Restart": a fresh engine for the same query.
        let mut fresh = block(spec, StrategyKind::AllSp);
        restore(fresh.source_mut(0), &ckpt);
        assert_eq!(fresh.source(0).load_factors(), ckpt.load_factors);
        let again = snapshot(fresh.source_mut(0));
        let count = |c: &Checkpoint| c.states.iter().map(|(_, s)| s.entry_count()).sum::<usize>();
        assert_eq!(count(&again), count(&ckpt), "restored state round-trips");
    }

    #[test]
    fn failover_to_sp_merges_checkpoint() {
        let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
        let mut s = block(spec.clone(), StrategyKind::AllSrc);
        for _ in 0..3 {
            s.run_epoch();
        }
        let ckpt = snapshot(s.source_mut(0));
        let planned = spec.plan();
        let mut sp = crate::engine::sp::SpEngine::new(&planned, &spec.costs(), 1);
        let bytes = apply_at_sp(&mut sp, 0, &ckpt, 3.0);
        assert_eq!(
            bytes,
            ckpt.states
                .iter()
                .map(|(_, s)| s.wire_bytes())
                .sum::<usize>()
        );
        // The merged window closes and emits results at the SP.
        sp.run_epoch(20_000_000);
        assert!(
            sp.results_emitted() > 0,
            "checkpointed window must complete at SP"
        );
    }
}
