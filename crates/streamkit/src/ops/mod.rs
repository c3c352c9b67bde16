//! Stream operators — batch-first.
//!
//! Operators consume and produce columnar [`Batch`]es: `Filter` evaluates
//! its predicate into a selection mask and gathers once, `Project`/`Map`
//! work column-wise, `GroupAggregate` keys directly off column slices, and
//! `Join` probes the lookup table per column. The record-at-a-time API this
//! library shipped with originally (the `ops::row` shim) was removed after
//! its one-release deprecation window; `tests/golden_fingerprints.rs`
//! pins the query results the differential oracle used to guard.
//!
//! Beyond batch processing, operators expose three hooks the Jarvis engine
//! relies on:
//!
//! * **state-dependent cost** ([`Operator::cost_us`]) — per-record compute
//!   cost that grows with live state (hash-table size for grouping, static
//!   table size for joins), which is what makes profiling-on-a-sample biased
//!   exactly as the paper observes (§VI-C);
//! * **watermark handling** ([`Operator::on_watermark`]) — closes event-time
//!   windows, emitting result batches;
//! * **partial-state draining** ([`Operator::take_state_delta`] /
//!   [`Operator::merge_state`]) — stateful operators running on a data source
//!   in *partial* role ship mergeable pre-aggregated state to their replica on
//!   the stream processor (paper §V, "stateful operators relay output to the
//!   corresponding operator ... for merging the accumulated state").
//!
//! # Implementing an operator
//!
//! ```
//! use streamkit::batch::Batch;
//! use streamkit::ops::{OpKind, Operator};
//! use streamkit::record::Record;
//! use streamkit::schema::{DataType, Field, Schema, SchemaRef};
//!
//! struct Passthrough(SchemaRef);
//!
//! impl Operator for Passthrough {
//!     fn kind(&self) -> OpKind { OpKind::Map }
//!     fn output_schema(&self) -> SchemaRef { self.0.clone() }
//!     fn process_batch(&mut self, batch: Batch, out: &mut Vec<Batch>) { out.push(batch); }
//!     fn cost_us(&self) -> f64 { 1.0 }
//!     fn reset(&mut self) {}
//! }
//!
//! let schema = Schema::new(vec![Field::new("x", DataType::I64)]);
//! let mut op: Box<dyn Operator> = Box::new(Passthrough(schema.clone()));
//! let batch = Batch::from_records(schema, &[Record::new(0, vec![1i64.into()])]).unwrap();
//! let mut out = Vec::new();
//! op.process_batch(batch, &mut out);
//! assert_eq!(out[0].len(), 1);
//! ```

pub mod cost;
pub mod filter;
pub mod group;
pub mod join;
pub mod key;
pub mod map;
pub mod project;
pub mod window_op;

use serde::{Deserialize, Serialize};

use crate::agg::AggState;
use crate::batch::{layout, Batch};
use crate::schema::SchemaRef;
use crate::shard::{BOOL_TAG, STR_HEADER, STR_TAG};
use crate::time::Ts;

pub use cost::CostModel;
pub use filter::FilterOp;
pub use group::{AggRole, EmitMode, GroupAggregateOp};
pub use join::{JoinMiss, JoinOp, StaticTable};
pub use key::GroupKey;
pub use map::{MapFn, MapOp};
pub use project::ProjectOp;
pub use window_op::WindowAssignOp;

/// Operator kinds, used by the planner's eligibility rules (R-1..R-4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Window assignment (pass-through).
    Window,
    /// Predicate filter.
    Filter,
    /// Record transformation.
    Map,
    /// Column projection.
    Project,
    /// Keyed windowed aggregation.
    GroupAggregate,
    /// Stream-table join.
    Join,
}

impl OpKind {
    /// Short display name (matches the paper's operator letters).
    pub fn letter(self) -> &'static str {
        match self {
            OpKind::Window => "W",
            OpKind::Filter => "F",
            OpKind::Map => "M",
            OpKind::Project => "P",
            OpKind::GroupAggregate => "G+R",
            OpKind::Join => "J",
        }
    }
}

/// One group's partial aggregate state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupPartialEntry {
    /// Start of the window the state belongs to.
    pub window_start: Ts,
    /// Group key, as its canonical encoding.
    pub key: GroupKey,
    /// One state per aggregate spec.
    pub states: Vec<AggState>,
}

impl GroupPartialEntry {
    /// Encoded size used for network accounting: window start + key values +
    /// aggregate states (string sizing shared with the batch layout). Read
    /// off the key's bytes: a string costs its layout size, a bool 1 byte,
    /// any other value 8.
    pub fn wire_bytes(&self) -> usize {
        let key_bytes: usize = self
            .key
            .fragments()
            .map(|f| match f[0] {
                STR_TAG => layout::str_bytes(f.len() - STR_HEADER),
                BOOL_TAG => 1,
                _ => 8,
            })
            .sum();
        8 + key_bytes + self.states.iter().map(AggState::state_bytes).sum::<usize>()
    }
}

/// Mergeable state shipped from a source-side stateful operator to its
/// stream-processor replica.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StatePartial {
    /// Grouped aggregation partials.
    Group(Vec<GroupPartialEntry>),
}

impl StatePartial {
    /// Encoded size in bytes.
    pub fn wire_bytes(&self) -> usize {
        match self {
            StatePartial::Group(entries) => {
                4 + entries
                    .iter()
                    .map(GroupPartialEntry::wire_bytes)
                    .sum::<usize>()
            }
        }
    }

    /// Number of group entries carried.
    pub fn entry_count(&self) -> usize {
        match self {
            StatePartial::Group(entries) => entries.len(),
        }
    }
}

/// A single-input stream operator over columnar batches.
pub trait Operator: Send {
    /// Operator kind.
    fn kind(&self) -> OpKind;

    /// Human-readable name for traces and plans.
    fn name(&self) -> String {
        self.kind().letter().to_string()
    }

    /// Schema of emitted batches.
    fn output_schema(&self) -> SchemaRef;

    /// Processes one batch, appending any output batches. Implementations
    /// preserve input row order in their outputs (engines rely on this to
    /// attribute absorbed rows, see [`absorbed_timestamps`]).
    fn process_batch(&mut self, batch: Batch, out: &mut Vec<Batch>);

    /// Advances event time; windowed operators emit closed-window results.
    fn on_watermark(&mut self, _wm: Ts, _out: &mut Vec<Batch>) {}

    /// Epoch boundary hook; delta-emitting aggregations flush here.
    fn on_epoch(&mut self, _out: &mut Vec<Batch>) {}

    /// Current per-record compute cost in µs (may depend on live state).
    fn cost_us(&self) -> f64;

    /// Whether the operator holds mergeable state.
    fn is_stateful(&self) -> bool {
        false
    }

    /// Live state size (rows/groups), for cost models and diagnostics.
    fn state_size(&self) -> usize {
        0
    }

    /// Takes accumulated partial state for shipping to the replica
    /// (partial-role stateful operators only).
    fn take_state_delta(&mut self) -> Option<StatePartial> {
        None
    }

    /// Non-destructive cumulative snapshot of the operator's state for
    /// checkpointing. Unlike [`Operator::take_state_delta`] — which only
    /// extracts shippable increments from partial-role operators — this
    /// covers every stateful role and leaves the live state untouched.
    /// `None` when the operator is stateless or holds no state.
    fn checkpoint_state(&self) -> Option<StatePartial> {
        None
    }

    /// Merges partial state shipped from a partial-role twin.
    fn merge_state(&mut self, _state: StatePartial) {}

    /// Clears all operator state (redeployment / tests).
    fn reset(&mut self);

    /// Downcast hook for operator-specific runtime reconfiguration (e.g.
    /// swapping a join's static table mid-run, paper Fig. 8b).
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Timestamps of input rows an operator *absorbed* — rows with no
/// corresponding output row (filtered out, join misses, folded into
/// aggregate state). Engines use this to credit per-record completions.
///
/// Relies on operators preserving input row order (and timestamps) in their
/// outputs; computed as an ordered two-pointer difference between the input
/// timestamps and the concatenated output timestamps. If an operator
/// rewrites timestamps the result degrades gracefully: the first
/// `inputs - outputs` unmatched input timestamps are reported so row
/// conservation still holds.
pub fn absorbed_timestamps(input_ts: &[Ts], outputs: &[Batch]) -> Vec<Ts> {
    let out_rows: usize = outputs.iter().map(Batch::len).sum();
    if out_rows == 0 {
        return input_ts.to_vec();
    }
    let absorbed_n = input_ts.len().saturating_sub(out_rows);
    if absorbed_n == 0 {
        return Vec::new();
    }
    let mut absorbed = Vec::with_capacity(absorbed_n);
    let mut out_iter = outputs.iter().flat_map(|b| b.timestamps.iter().copied());
    let mut next_out = out_iter.next();
    for &ts in input_ts {
        match next_out {
            Some(o) if o == ts => next_out = out_iter.next(),
            _ => absorbed.push(ts),
        }
    }
    // Timestamp-rewriting operators defeat the order matching; conserve row
    // counts regardless.
    absorbed.truncate(absorbed_n);
    while absorbed.len() < absorbed_n {
        absorbed.push(*input_ts.last().expect("inputs exist"));
    }
    absorbed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Schema};
    use crate::value::Value;

    fn batch_of(ts: &[Ts]) -> Batch {
        let schema = Schema::new(vec![Field::new("x", DataType::I64)]);
        let recs: Vec<_> = ts
            .iter()
            .map(|&t| crate::record::Record::new(t, vec![Value::I64(t)]))
            .collect();
        Batch::from_records(schema, &recs).unwrap()
    }

    #[test]
    fn absorbed_is_the_ordered_difference() {
        let input = [1, 2, 3, 4, 5];
        let outs = [batch_of(&[2, 4])];
        assert_eq!(absorbed_timestamps(&input, &outs), vec![1, 3, 5]);
        assert_eq!(absorbed_timestamps(&input, &[]), vec![1, 2, 3, 4, 5]);
        assert_eq!(
            absorbed_timestamps(&input, &[batch_of(&input)]),
            Vec::<Ts>::new()
        );
    }

    #[test]
    fn absorbed_conserves_counts_even_when_ts_rewritten() {
        let input = [1, 2, 3];
        // Output timestamps unrelated to inputs (a ts-rewriting map).
        let outs = [batch_of(&[100, 200])];
        let absorbed = absorbed_timestamps(&input, &outs);
        assert_eq!(absorbed.len(), 1);
    }

    #[test]
    fn absorbed_handles_duplicate_timestamps() {
        let input = [7, 7, 7, 9];
        let outs = [batch_of(&[7, 9])];
        assert_eq!(absorbed_timestamps(&input, &outs), vec![7, 7]);
    }
}
