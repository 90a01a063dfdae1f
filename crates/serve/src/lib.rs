//! # psa-serve — a fault-isolated multi-tenant design-flow service
//!
//! Long-running daemon accepting PSA design-flow jobs over line-delimited
//! JSON (stdin or TCP): each job names a benchmark or inline source, a
//! flow mode, a failure policy, a deadline and an optional fault plan,
//! and runs on a bounded worker pool behind per-tenant admission control.
//!
//! The moving parts:
//!
//! * [`proto`] — the wire protocol: requests, responses, typed
//!   [`proto::ProtoError`]s for malformed lines, typed
//!   [`proto::RejectReason`]s for admission refusals, and the canonical
//!   [`proto::render_outcome`] rendering that makes served results
//!   byte-comparable to offline `run_flow_job` runs;
//! * [`admission`] — token-bucket rate limits, per-tenant in-flight
//!   quotas and a bounded global queue, all computed on the submission
//!   stream's *virtual clock* so decisions are deterministic;
//! * [`server`] — the daemon core: worker pool with per-job
//!   `catch_unwind` isolation under `psa-serve/{tenant}/{job}` root
//!   spans, cooperative cancellation and end-to-end deadlines threaded
//!   through the flow engine, one shared domain-quota'd
//!   [`psa_evalcache::EvalCache`] across tenants, and graceful drain that
//!   flushes a metrics snapshot plus per-job forensic bundles;
//! * [`loadgen`] — the seeded workload generator behind the `psa-load`
//!   binary and the soak harness: same seed, same submission stream,
//!   byte-for-byte.

pub mod admission;
pub mod loadgen;
pub mod proto;
pub mod server;

pub use admission::{AdmissionController, TenantPolicy};
pub use proto::{
    decode_request, encode_request, render_outcome, JobResult, JobSpec, JobStatus, ProtoError,
    RejectReason, Request, Response, StatsSnapshot,
};
pub use server::{serve_tcp, Server, ServerConfig};
