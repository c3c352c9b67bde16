//! Execution engines.
//!
//! [`source::SourceEngine`] runs the source-side query instance on an
//! emulated node: control proxies route records, operators charge their costs
//! against the node's CPU budget, and drained data/state flows to the network
//! as [`NetPayload`]s. [`sp::SpEngine`] runs the replica pipelines and state
//! merging on the one stream processor. [`block::BuildingBlock`] wires N
//! sources, a fair-shared link, and the SP into the paper's core building
//! block (Fig. 4b) and advances them epoch by epoch.
//!
//! The live tier reuses the payload type and owns everything multi-node:
//! [`netwire`] encodes the shard variants of [`NetPayload`] and
//! [`transport`] frames them over TCP.

pub mod block;
pub mod metrics;
pub mod netwire;
pub mod source;
pub mod sp;
pub mod transport;

use streamkit::batch::Batch;
use streamkit::ops::StatePartial;

pub use block::{BuildingBlock, NetworkModel};
pub use metrics::{EpochMetrics, RunMetrics};
pub use source::{SourceConfig, SourceEngine};
pub use sp::SpEngine;

/// Data shipped between nodes: source → SP uplink traffic, and — on the
/// live tier's multi-node SP — shard traffic between SP nodes. Record
/// traffic travels in the same columnar [`Batch`] layout the wire encoder
/// uses; the shard variants additionally have a binary wire codec
/// ([`netwire`]) so a remote shard is reachable through bytes alone
/// (location transparency).
#[derive(Debug, Clone, PartialEq)]
pub enum NetPayload {
    /// A batch drained at the proxy of operator `stage` (0-based index into
    /// the plan); `stage == plan length` means fully-processed rows
    /// (results of a stateless tail) headed for the SP's merge/collect.
    Records {
        /// Destination operator index on the SP replica.
        stage: usize,
        /// The drained rows, columnar.
        batch: Batch,
    },
    /// Mergeable partial state from the source-side stateful operator at
    /// `stage`.
    StateDelta {
        /// Source operator index.
        stage: usize,
        /// The state increment.
        delta: StatePartial,
    },
    /// A keyed sub-batch crossing SP nodes: every row hashes to virtual
    /// shard `shard` of the fixed ring, entering that shard's pipeline at
    /// suffix stage `rel` (0 = the stateful boundary operator).
    ShardBatch {
        /// Owning virtual shard on the hash ring.
        shard: u32,
        /// Epoch the sender dispatched in (transport ordering/diagnostics).
        epoch: u64,
        /// Originating data source (selects the replica).
        source: u32,
        /// Entry stage relative to the keyed boundary.
        rel: u32,
        /// The keyed rows, columnar.
        batch: Batch,
    },
    /// Partial state owned by virtual shard `shard`, crossing SP nodes to
    /// merge into that shard's stateful operator at suffix stage `rel`.
    ShardState {
        /// Owning virtual shard on the hash ring.
        shard: u32,
        /// Epoch the sender dispatched in.
        epoch: u64,
        /// Originating data source (selects the replica).
        source: u32,
        /// Merge stage relative to the keyed boundary.
        rel: u32,
        /// The state increment (already split by key ownership).
        delta: StatePartial,
    },
}

impl NetPayload {
    /// Number of rows carried (state payloads count group entries).
    pub fn record_count(&self) -> usize {
        match self {
            NetPayload::Records { batch, .. } | NetPayload::ShardBatch { batch, .. } => batch.len(),
            NetPayload::StateDelta { delta, .. } | NetPayload::ShardState { delta, .. } => {
                delta.entry_count()
            }
        }
    }

    /// Encoded size charged against links and wire accounting, from the
    /// `batch::layout` single source of truth.
    pub fn wire_bytes(&self) -> usize {
        match self {
            NetPayload::Records { batch, .. } | NetPayload::ShardBatch { batch, .. } => {
                batch.wire_size()
            }
            NetPayload::StateDelta { delta, .. } | NetPayload::ShardState { delta, .. } => {
                delta.wire_bytes()
            }
        }
    }
}
