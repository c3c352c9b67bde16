//! `jarvis-bench` — the figure/table reproduction harness.
//!
//! One runner per table/figure of the paper's evaluation (§VI). Each runner
//! returns a serialisable result that the `repro` binary prints as the same
//! rows/series the paper plots, and optionally writes as JSON for
//! EXPERIMENTS.md.

pub mod dictepoch;
pub mod faultrecovery;
pub mod figures;
pub mod groupagg;
pub mod measure;
pub mod nettransport;
pub mod output;
pub mod plancheck_cli;
pub mod throughput;
pub mod wirecodec;

pub use dictepoch::{bench_dict_epoch, DictEpochResult};
pub use faultrecovery::{bench_fault_recovery, FaultRecoveryResult};
pub use figures::*;
pub use groupagg::{bench_group_agg, GroupAggResult};
pub use nettransport::{bench_net_transport, NetTransportResult};
pub use throughput::ThroughputReport;
pub use wirecodec::{bench_wire_codec, WireCodecResult};
