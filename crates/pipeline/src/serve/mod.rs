//! The distributed campaign service: a coordinator that decomposes one
//! [`CampaignSpec`] into shard **leases** and hands them to a preemptible
//! worker fleet over a versioned line-delimited JSON protocol
//! (`holes.rpc/v1`), with crash-tolerance as the design center.
//!
//! The moving parts, bottom up:
//!
//! * [`protocol`] — the `holes.rpc/v1` wire messages. One TCP connection
//!   carries one request line and one reply line; results embed the
//!   completed shard as a full `holes.campaign/v1` document, so the
//!   coordinator revalidates every record exactly like `holes report` does.
//! * [`lease`] — the coordinator's shard state machine. Leases carry
//!   heartbeat deadlines; a missed deadline revokes the lease and requeues
//!   the shard (bounded attempts, then quarantine, mirroring the store's
//!   quarantine protocol), and results from revoked leases are discarded
//!   idempotently so no subject is ever double-counted.
//! * [`journal`] — the coordinator's own crash log
//!   (`holes.serve-journal/v1`): every accepted shard is appended and
//!   fsynced before the worker sees the acknowledgement, so a restarted
//!   coordinator resumes without re-running finished work.
//! * [`coordinator`] — the transport-free service core ([`ServeState`])
//!   plus the TCP accept loop ([`Coordinator`]); SIGTERM (a drain flag)
//!   stops new assignments and lets in-flight leases finish.
//! * [`worker`] — the worker loop: lease, evaluate through
//!   [`crate::stream::resume_shard_streaming`] (so a `kill -9`'d worker
//!   restarted over the same work directory re-evaluates only the
//!   unfinished suffix), heartbeat in the background, submit.
//! * [`cache`] — the `holes.cache-rpc/v1` fleet-wide artifact cache: the
//!   coordinator serves fetch/put requests straight out of its
//!   [`crate::store::ArtifactStore`] on the same listener, and workers
//!   layer a [`RemoteStore`] client into their miss path (memory → local
//!   store → remote fetch → recompute, with write-through puts), behind
//!   timeouts, bounded retry, and a circuit breaker that degrades to
//!   local-only caching.
//! * [`chaos`] — the `HOLES_SERVE_CHAOS` fault-injection knob the CI smoke
//!   drives (`abort:N` hard-kills the process mid-shard; `preempt:N`
//!   silences heartbeats so a lease is revoked under a live worker), plus
//!   `HOLES_CACHE_CHAOS` (`drop:N`/`corrupt:N`/`delay:N`) for mutating
//!   cache replies.
//!
//! The load-bearing guarantee, held by proptests over random kill and
//! revocation schedules: the coordinator's merged stream is
//! **byte-identical** to a single-process unsharded
//! [`crate::stream::run_shard_streaming`] of the same spec and fault
//! policy.
//!
//! [`CampaignSpec`]: crate::shard::CampaignSpec
//! [`ServeState`]: coordinator::ServeState
//! [`Coordinator`]: coordinator::Coordinator

pub mod cache;
pub mod chaos;
pub mod coordinator;
pub mod journal;
pub mod lease;
pub mod protocol;
pub mod worker;

pub use cache::{CacheReply, CacheRequest, RemoteStore, CACHE_RPC_FORMAT};
pub use coordinator::{Coordinator, ServeConfig, ServeReport, ServeState};
pub use journal::{Journal, JOURNAL_FORMAT};
pub use lease::{Assignment, LeaseConfig, LeaseTable, Revocation, Submission};
pub use protocol::{Reply, Request, RPC_FORMAT};
pub use worker::{run_worker, WorkerConfig, WorkerOutcome};

use crate::shard::ShardError;

/// A failure in the distributed campaign service: transport, shard
/// validation, or a protocol violation by the peer.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or journal-file operation failed.
    Io(std::io::Error),
    /// An embedded spec or shard failed validation (see [`ShardError`]).
    Shard(ShardError),
    /// The peer (or a journal on disk) violated the `holes.rpc/v1` /
    /// `holes.cache-rpc/v1` / `holes.serve-journal/v1` contract.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O: {e}"),
            ServeError::Shard(e) => e.fmt(f),
            ServeError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(error: std::io::Error) -> ServeError {
        ServeError::Io(error)
    }
}

impl From<ShardError> for ServeError {
    fn from(error: ShardError) -> ServeError {
        ServeError::Shard(error)
    }
}

impl From<crate::stream::StreamError> for ServeError {
    fn from(error: crate::stream::StreamError) -> ServeError {
        match error {
            crate::stream::StreamError::Shard(e) => ServeError::Shard(e),
            crate::stream::StreamError::Io(e) => ServeError::Io(e),
        }
    }
}
