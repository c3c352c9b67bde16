//! The live runtime: the *same* pipeline code as the emulator (`engine`),
//! under real concurrency.
//!
//! [`session::LiveSession`] is the one live execution path — fixed and
//! adaptive strategies, one to thousands of sources, in-process or TCP SP
//! tier — and the backend behind `BackendKind::Live`. `host` is the
//! single shard host both SP tiers drive (in-process node tasks here, the
//! `jarvis-node` serve loop in [`crate::node`]); `remote` is the
//! coordinator side of the TCP tier, the TCP shell around the socket-free
//! protocol state machine in `coordinator`.

pub(crate) mod coordinator;
pub(crate) mod host;
pub(crate) mod remote;
pub mod session;

pub use session::{LiveOutcome, LiveSession};
