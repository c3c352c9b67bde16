//! One SP node's slice of the shard ring: the single place a shard payload
//! lands on the live tiers.
//!
//! A [`ShardHost`] owns the keyed shard pipelines of one node — one suffix
//! chain per owned shard per data source — the receiver-side dictionary
//! mirrors of the link feeding it, and the decode-side schemas. The
//! in-process node task of [`LiveSession`](crate::live::LiveSession) and the
//! `jarvis-node` serve loop ([`crate::node`]) both drive the same host: the
//! former hands it payloads off a bounded channel, the latter frames off a
//! TCP link, and everything past that point — decode, ownership and index
//! checks, processing, state merging, window close, checkpoint, drain — is
//! this module. Failures a peer can cause come back as one typed
//! [`HostError`]; the callers map it onto their own error at the edge.
//!
//! **Windows close on the epoch watermark, and their rows leave at once.**
//! Every epoch boundary is a barrier (all of the epoch's rows and state
//! deltas are in), so the host's driver calls [`ShardHost::advance`] with
//! [`epoch_end_watermark`] and zero allowed lateness. Closed windows leave
//! operator state, cascade down the rest of their chain and come back from
//! that call as shard-tagged result batches — the host keeps nothing of a
//! closed window. What it holds is bounded by the windows still open
//! ([`ShardHost::open_groups`]), and so is its checkpoint
//! ([`ShardHost::snapshot`]).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use bytes::Bytes;
use streamkit::batch::{Batch, DictRegistry};
use streamkit::logical::LogicalPlan;
use streamkit::ops::{AggRole, Operator, StatePartial};
use streamkit::physical::{build_pipeline, drain_windows, CostProfile};
use streamkit::schema::SchemaRef;
use streamkit::time::{Ts, TS_MAX};

use crate::calibration;
use crate::deploy::remote::{AdoptShard, ShardCounters};
use crate::engine::netwire::decode_shard_payload_with;
use crate::engine::NetPayload;

/// Result batches smaller than this are appended to their predecessor in
/// [`ShardSet::emitted`], so thousands of pipelines closing a window of a
/// few groups each do not hand back thousands of few-row batches.
const COLLECT_ROWS: usize = 4096;

/// The event-time watermark at the end of `epoch`: the barrier that closes
/// it has seen every row and state delta stamped before this instant.
pub(crate) fn epoch_end_watermark(epoch: u64) -> Ts {
    ((epoch + 1) as f64 * calibration::EPOCH_SECS * 1e6) as Ts
}

/// Why a payload was refused. Every variant is reachable from the wire, so
/// none of them may panic the host's driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HostError {
    /// The bytes are not a decodable shard envelope.
    Undecodable(String),
    /// The payload names a shard this host does not own.
    ShardNotOwned {
        /// The shard named.
        shard: u32,
        /// The shards owned, ring order.
        owned: Vec<usize>,
    },
    /// A payload kind the node links never carry.
    StrayPayload,
    /// A source or stage index past what the plan has.
    OutOfRange {
        /// Which index.
        what: &'static str,
        /// The index received.
        index: u32,
        /// The exclusive bound it violated.
        len: usize,
    },
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::Undecodable(e) => write!(f, "undecodable shard payload: {e}"),
            HostError::ShardNotOwned { shard, owned } => {
                write!(f, "shard {shard} outside owned set {owned:?}")
            }
            HostError::StrayPayload => write!(f, "node links carry shard payloads only"),
            HostError::OutOfRange { what, index, len } => {
                write!(f, "{what} index {index} out of range (have {len})")
            }
        }
    }
}

/// One virtual shard's pipelines: a keyed chain per source plus the rows
/// that left them since the last barrier, and the shard's counters.
struct ShardSet {
    /// `pipelines[source]` = the chain from the stateful boundary down.
    pipelines: Vec<Vec<Box<dyn Operator>>>,
    /// Rows that traversed a full chain since the last barrier, columnar;
    /// [`ShardSet::advance`] hands them out.
    emitted: Vec<Batch>,
    /// Input rows routed into this shard.
    drained_records: u64,
    /// Counterfactual compute charged to this shard, µs.
    usage_us: f64,
}

impl ShardSet {
    /// A zero-counter set over freshly built pipelines.
    fn new(pipelines: Vec<Vec<Box<dyn Operator>>>) -> ShardSet {
        ShardSet {
            pipelines,
            emitted: Vec::new(),
            drained_records: 0,
            usage_us: 0.0,
        }
    }

    /// Runs a batch through the pipeline suffix starting at `rel`, charging
    /// the shard's counterfactual budget from the calibrated cost model. A
    /// batch entering past the end of the chain (a keyless plan's
    /// pass-through shard) is already a result.
    fn process(&mut self, source: usize, rel: usize, batch: Batch) {
        let ops = &mut self.pipelines[source];
        if rel >= ops.len() {
            collect(&mut self.emitted, batch);
            return;
        }
        self.drained_records += batch.len() as u64;
        let mut batches = vec![batch];
        for op in ops.iter_mut().skip(rel) {
            let mut next = Vec::new();
            for b in batches.drain(..) {
                self.usage_us += op.cost_us() * b.len() as f64;
                op.process_batch(b, &mut next);
            }
            batches = next;
        }
        for b in batches {
            collect(&mut self.emitted, b);
        }
    }

    /// Advances event time to `wm` on every pipeline: windows the watermark
    /// closes leave operator state and cascade down the rest of their chain
    /// ([`drain_windows`]). Returns every row that left the chain since the
    /// last barrier.
    fn advance(&mut self, wm: Ts) -> Vec<Batch> {
        for pipeline in &mut self.pipelines {
            for batch in drain_windows(pipeline, wm) {
                collect(&mut self.emitted, batch);
            }
        }
        std::mem::take(&mut self.emitted)
    }
}

/// Adds a batch that left a chain to the emitted results, coalescing small
/// batches (see [`COLLECT_ROWS`]).
fn collect(emitted: &mut Vec<Batch>, batch: Batch) {
    if batch.is_empty() {
        return;
    }
    match emitted.last_mut() {
        Some(last) if last.len() + batch.len() <= COLLECT_ROWS => last.append(&batch),
        _ => emitted.push(batch),
    }
}

/// A node's shard sets plus what it takes to feed, checkpoint and grow
/// them. Sets are keyed by ring-absolute shard index — ownership starts as
/// the contiguous `shards_of_node` slice but can grow past it through
/// adoption.
pub(crate) struct ShardHost {
    /// Live shard sets, keyed ring-absolute.
    sets: BTreeMap<usize, ShardSet>,
    /// Mirrors of the sender's persistent dictionaries for this host's
    /// link, fed by the delta pages riding live shard frames. Lives as long
    /// as the host because delta pages resume across epoch boundaries.
    /// Checkpoint and replay frames are self-contained (full pages) and
    /// decode without mirror state.
    registry: DictRegistry,
    /// Input schema of every suffix stage plus the output edge — the decode
    /// side of the inter-node wire.
    suffix_schemas: Vec<SchemaRef>,
    /// The optimised plan and its calibrated costs, kept to instantiate
    /// adopted shards' pipelines.
    plan: LogicalPlan,
    costs: CostProfile,
    /// First SP-side operator index (the suffix starts here).
    boundary: usize,
    /// Replica pipelines per shard (one per data source).
    sources: usize,
}

impl ShardHost {
    /// Instantiates fresh pipelines — one suffix chain per source — for
    /// every shard in `owned`. Keyless plans have an empty suffix: their
    /// single pass-through shard collects whatever reaches it.
    pub(crate) fn new(
        plan: &LogicalPlan,
        costs: &CostProfile,
        sources: usize,
        owned: Range<usize>,
    ) -> streamkit::error::Result<ShardHost> {
        let boundary = plan.shard_boundary().map_or(plan.len(), |(g, _)| g);
        let mut host = ShardHost {
            sets: BTreeMap::new(),
            registry: DictRegistry::default(),
            suffix_schemas: plan.edge_schemas()?[boundary..].to_vec(),
            plan: plan.clone(),
            costs: costs.clone(),
            boundary,
            sources,
        };
        for shard in owned {
            let set = host.fresh_set()?;
            host.sets.insert(shard, set);
        }
        Ok(host)
    }

    /// A zero-counter shard set with fresh pipelines (one per source).
    fn fresh_set(&self) -> streamkit::error::Result<ShardSet> {
        let pipelines = (0..self.sources)
            .map(|_| {
                build_pipeline(&self.plan, &self.costs, AggRole::Final)
                    .map(|mut ops| ops.split_off(self.boundary))
            })
            .collect::<streamkit::error::Result<Vec<_>>>()?;
        Ok(ShardSet::new(pipelines))
    }

    /// Stages in the hosted suffix.
    fn suffix_len(&self) -> usize {
        self.suffix_schemas.len() - 1
    }

    /// Decodes one shard frame (an untouched `netwire` envelope) against
    /// the link's dictionary mirrors and applies it.
    pub(crate) fn ingest_wire(&mut self, frame: Bytes) -> Result<(), HostError> {
        let payload = decode_shard_payload_with(frame, &self.suffix_schemas, &mut self.registry)
            .map_err(|e| HostError::Undecodable(e.to_string()))?;
        self.ingest(payload)
    }

    /// Applies one shard payload: a batch runs down its shard's chain from
    /// stage `rel`, a state delta merges into the stateful operator at `rel`.
    /// Shard ownership and both indices are checked here, once, so nothing
    /// below indexes on a value a peer chose.
    pub(crate) fn ingest(&mut self, payload: NetPayload) -> Result<(), HostError> {
        match payload {
            NetPayload::ShardBatch {
                shard,
                source,
                rel,
                batch,
                ..
            } => {
                self.set_for(shard, source)?
                    .process(source as usize, rel as usize, batch);
            }
            NetPayload::ShardState {
                shard,
                source,
                rel,
                delta,
                ..
            } => {
                let stages = self.suffix_len();
                if rel as usize >= stages {
                    return Err(HostError::OutOfRange {
                        what: "state stage",
                        index: rel,
                        len: stages,
                    });
                }
                self.set_for(shard, source)?.pipelines[source as usize][rel as usize]
                    .merge_state(delta);
            }
            _ => return Err(HostError::StrayPayload),
        }
        Ok(())
    }

    /// The set of an owned `shard`, once `source` is known to have a
    /// pipeline in it.
    fn set_for(&mut self, shard: u32, source: u32) -> Result<&mut ShardSet, HostError> {
        if source as usize >= self.sources {
            return Err(HostError::OutOfRange {
                what: "source",
                index: source,
                len: self.sources,
            });
        }
        if !self.sets.contains_key(&(shard as usize)) {
            return Err(HostError::ShardNotOwned {
                shard,
                owned: self.sets.keys().copied().collect(),
            });
        }
        Ok(self
            .sets
            .get_mut(&(shard as usize))
            .expect("presence checked above"))
    }

    /// Closes every window that ends by `wm` on every owned shard and
    /// returns their result rows as `(shard, batch)` pairs, ring order —
    /// each row once: the host keeps no copy. A boundary re-sent by
    /// recovery returns nothing for the windows it already closed, and for
    /// an adopter it is the moment the restored and replayed windows close,
    /// all at once.
    pub(crate) fn advance(&mut self, wm: Ts) -> Vec<(u32, Batch)> {
        let mut closed = Vec::new();
        for (&shard, set) in &mut self.sets {
            closed.extend(set.advance(wm).into_iter().map(|b| (shard as u32, b)));
        }
        closed
    }

    /// Groups held in open windows across the host's stateful operators.
    pub(crate) fn open_groups(&self) -> usize {
        self.sets
            .values()
            .flat_map(|set| set.pipelines.iter().flatten())
            .filter(|op| op.is_stateful())
            .map(|op| op.state_size())
            .sum()
    }

    /// Calls `f` on every hosted pipeline (the static-table swap of
    /// scheduled resource events).
    pub(crate) fn for_each_pipeline(&mut self, mut f: impl FnMut(&mut [Box<dyn Operator>])) {
        for set in self.sets.values_mut() {
            for pipeline in &mut set.pipelines {
                f(pipeline);
            }
        }
    }

    /// Takes ownership of shards lost with a failed peer (or re-owns this
    /// node's slice on a reconnect): each adopted shard starts from a
    /// fresh pipeline seeded with the checkpoint's counter bases. The
    /// checkpoint state and the replayed post-checkpoint traffic follow as
    /// ordinary shard payloads.
    pub(crate) fn adopt(&mut self, shards: &[AdoptShard]) -> streamkit::error::Result<()> {
        for a in shards {
            let mut set = self.fresh_set()?;
            set.drained_records = a.drained_records;
            set.usage_us = a.usage_us;
            self.sets.insert(a.shard as usize, set);
        }
        Ok(())
    }

    /// Full snapshot of every stateful suffix operator, as
    /// `(shard, source, rel, state)`. Uses the non-destructive
    /// [`checkpoint_state`](Operator::checkpoint_state), which covers every
    /// role — `take_state_delta` would skip final-role aggregations and
    /// silently checkpoint an empty table. Each snapshot is whole, so the
    /// coordinator can store checkpoints by replacement; taken after the
    /// barrier's [`ShardHost::advance`], it holds open windows only.
    pub(crate) fn snapshot(&self) -> Vec<(u32, u32, u32, StatePartial)> {
        let mut out = Vec::new();
        for (&shard, set) in &self.sets {
            for (source, pipeline) in set.pipelines.iter().enumerate() {
                for (rel, op) in pipeline.iter().enumerate() {
                    if let Some(delta) = op.checkpoint_state() {
                        out.push((shard as u32, source as u32, rel as u32, delta));
                    }
                }
            }
        }
        out
    }

    /// Per-shard accounting, ring order (adopted shards included).
    pub(crate) fn counters(&self) -> Vec<ShardCounters> {
        self.sets
            .iter()
            .map(|(&s, set)| ShardCounters {
                shard: s as u32,
                drained_records: set.drained_records,
                usage_us: set.usage_us,
            })
            .collect()
    }

    /// Closes the windows still open and returns their result rows, as
    /// [`ShardHost::advance`] does; every earlier window left at its own
    /// barrier.
    pub(crate) fn drain(&mut self) -> Vec<(u32, Batch)> {
        self.advance(TS_MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Scale;
    use crate::engine::netwire::encode_shard_payload;
    use crate::experiment::ScenarioSpec;
    use streamkit::record::Record;
    use streamkit::schema::{DataType, Field, Schema};
    use streamkit::value::Value;

    /// Node 0 of 2 over a 4-ring of the S2S query: owns shards 0 and 1,
    /// two sources.
    fn host() -> ShardHost {
        let scenario = ScenarioSpec::pingmesh_s2s(Scale::X1);
        ShardHost::new(&scenario.plan().plan, &scenario.costs(), 2, 0..2).unwrap()
    }

    /// One row per field type of the suffix's input edge, stamped `ts`.
    fn boundary_batch(host: &ShardHost, ts: i64) -> Batch {
        let schema = host.suffix_schemas[0].clone();
        let values = schema
            .fields()
            .iter()
            .map(|f| match f.dtype {
                DataType::Bool => Value::Bool(true),
                DataType::I32 | DataType::I64 => Value::I64(1),
                DataType::U32 | DataType::U64 => Value::U64(1),
                DataType::F64 => Value::F64(1.0),
                DataType::Str => Value::str("x"),
            })
            .collect();
        Batch::from_records(schema, &[Record::new(ts, values)]).unwrap()
    }

    fn batch_payload(host: &ShardHost, shard: u32, source: u32) -> NetPayload {
        NetPayload::ShardBatch {
            shard,
            epoch: 1,
            source,
            rel: 0,
            batch: boundary_batch(host, 1_500_000),
        }
    }

    fn state_frame(shard: u32, source: u32, rel: u32) -> Bytes {
        encode_shard_payload(&NetPayload::ShardState {
            shard,
            epoch: 1,
            source,
            rel,
            delta: StatePartial::Group(Vec::new()),
        })
    }

    #[test]
    fn hosts_build_one_chain_per_source_per_owned_shard() {
        let host = host();
        assert_eq!(host.sets.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(host.sets[&1].pipelines.len(), 2, "one chain per source");
        assert!(host.suffix_len() >= 1, "the keyed boundary is hosted");
    }

    #[test]
    fn undecodable_frames_and_stray_payloads_are_typed_failures() {
        let mut host = host();
        let err = host
            .ingest_wire(Bytes::from_static(b"not a shard frame"))
            .expect_err("garbage must not decode");
        assert!(matches!(err, HostError::Undecodable(_)), "got {err:?}");
        assert!(err.to_string().contains("undecodable"));
        // So does a payload kind the node links never carry.
        let stray = NetPayload::Records {
            stage: 0,
            batch: Batch::empty(Schema::new(Vec::new())),
        };
        assert_eq!(host.ingest(stray), Err(HostError::StrayPayload));
    }

    #[test]
    fn shard_routing_outside_the_slice_is_refused() {
        let mut host = host();
        assert_eq!(host.ingest(batch_payload(&host, 0, 0)), Ok(()));
        assert!(matches!(
            host.ingest(batch_payload(&host, 3, 0)),
            Err(HostError::ShardNotOwned { shard: 3, .. })
        ));
    }

    #[test]
    fn wire_chosen_indices_are_checked_not_indexed() {
        // A peer picks `shard`, `source` and `rel`; none of them may panic
        // the host or leave a trace when refused.
        let mut host = host();
        host.ingest(batch_payload(&host, 0, 0)).unwrap();
        let before = (host.counters(), host.open_groups());
        let len = host.suffix_len() as u32;
        for (frame, what) in [
            (state_frame(0, 2, 0), "source = sources"),
            (state_frame(0, 0, len), "rel = suffix length"),
            (state_frame(2, 0, 0), "unowned shard"),
            (
                encode_shard_payload(&batch_payload(&host, 0, 2)),
                "batch source = sources",
            ),
        ] {
            assert!(host.ingest_wire(frame).is_err(), "{what} must be refused");
            assert_eq!((host.counters(), host.open_groups()), before, "{what}");
        }
        assert_eq!(host.ingest_wire(state_frame(1, 1, 0)), Ok(()));
    }

    #[test]
    fn adoption_grows_the_owned_set_with_counter_bases() {
        let mut host = host();
        assert!(host.ingest(batch_payload(&host, 3, 0)).is_err());
        host.adopt(&[AdoptShard {
            shard: 3,
            drained_records: 7,
            usage_us: 0.25,
        }])
        .unwrap();
        assert_eq!(host.ingest(batch_payload(&host, 3, 0)), Ok(()));
        let counters = host.counters();
        let adopted = counters.iter().find(|c| c.shard == 3).unwrap();
        assert_eq!(adopted.drained_records, 8, "the base plus the new row");
        assert!(adopted.usage_us > 0.25);
        let total: u64 = counters.iter().map(|c| c.drained_records).sum();
        assert_eq!(total, 8, "counter bases carry into the totals");
    }

    #[test]
    fn fresh_hosts_have_no_state_to_snapshot() {
        let mut host = host();
        assert!(host.snapshot().is_empty());
        assert_eq!(host.open_groups(), 0);
        assert!(host.drain().is_empty());
    }

    #[test]
    fn closed_windows_leave_once_and_checkpoints_hold_open_state_only() {
        let mut host = host();
        host.ingest_wire(encode_shard_payload(&batch_payload(&host, 0, 0)))
            .unwrap();
        // Epoch 8 ends at 9 s: the 10 s window stays open, as state.
        assert!(host.advance(epoch_end_watermark(8)).is_empty());
        assert_eq!(host.snapshot().len(), 1);
        assert_eq!(host.open_groups(), 1);
        // Epoch 9 ends at 10 s and closes it: its row comes back, tagged
        // with its shard, and nothing of it stays behind.
        let closed = host.advance(epoch_end_watermark(9));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].0, 0, "tagged with the shard that closed it");
        assert_eq!(closed[0].1.len(), 1);
        assert!(
            host.snapshot().is_empty(),
            "no closed window in a checkpoint"
        );
        assert_eq!(host.open_groups(), 0);
        // A re-sent boundary closes nothing twice.
        assert!(host.advance(epoch_end_watermark(9)).is_empty());

        // A row of the next window (shard 1, 15 s): `drain` returns it and
        // only it — the closed window already left.
        host.ingest(NetPayload::ShardBatch {
            shard: 1,
            epoch: 14,
            source: 1,
            rel: 0,
            batch: boundary_batch(&host, 15_000_000),
        })
        .unwrap();
        assert_eq!(host.snapshot().len(), 1);
        let drained = host.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, 1);
        assert_eq!(drained[0].1.len(), 1);
        assert!(host.snapshot().is_empty());
        assert!(host.drain().is_empty());
    }

    #[test]
    fn emitted_results_coalesce_small_batches() {
        let schema = Schema::new(vec![Field::new("n", DataType::U64)]);
        let row = |ts| {
            Batch::from_records(schema.clone(), &[Record::new(ts, vec![Value::U64(1)])]).unwrap()
        };
        // An empty suffix: every batch is already past the end of the chain.
        let mut set = ShardSet::new(vec![Vec::new()]);
        set.process(0, 0, Batch::empty(schema.clone()));
        assert!(set.emitted.is_empty(), "empty batches leave no trace");
        for ts in 0..10 {
            set.process(0, 0, row(ts));
        }
        let emitted = set.advance(TS_MAX);
        assert_eq!(emitted.len(), 1, "few-row batches share one batch");
        assert_eq!(emitted[0].timestamps, (0..10).collect::<Vec<_>>());
        assert_eq!(set.drained_records, 0, "past-the-end rows are not input");
        assert!(set.advance(TS_MAX).is_empty(), "handed out once");
    }
}
