//! `dvs-cluster` — campaign execution for the experiment engine, on one
//! node or many.
//!
//! A **coordinator** decomposes a campaign ([`dvs_core::ExperimentPlan`]
//! plus the result-relevant slice of [`dvs_core::EvalConfig`]) into
//! cell-granular work units and hands them to registered **workers**. It
//! is the one campaign state machine: admission (a bounded queue), lease,
//! completion, drain and status rendering live there, and every
//! `dvs-serve` node runs one. A `--cluster` node serves its units to
//! remote workers over the dependency-free HTTP layer (`dvs-serve --join
//! <coordinator>` runs the worker loop and refuses campaigns of its own);
//! a single node runs them through its **in-process lane**
//! ([`spawn_lane`]), the same worker loop by direct call. So no process
//! runs two engines.
//!
//! The protocol is lease-based and idempotent by construction:
//!
//! * Workers *pull* work with [`Coordinator::lease`]; a lease expires
//!   unless renewed by the worker's heartbeat, so a SIGKILLed node's
//!   units requeue automatically (bounded retry with linear backoff).
//! * When a worker is idle and no unit is pending, leases older than the
//!   steal threshold are **duplicate-dispatched** (work stealing of slow
//!   cells). Duplicates are provably harmless: every cell is a pure
//!   function of its [`dvs_core::StoreKey`], so two workers computing
//!   the same unit produce bit-identical bytes and the coordinator
//!   keeps whichever finishes first (first-writer-wins).
//! * Completed cells are pushed back as checksummed
//!   [`dvs_core::StoredCell`] images; the coordinator persists them in
//!   its [`dvs_core::ResultStore`], the cluster's **one copy** of every
//!   result. A worker node answers `GET /v1/results` for a cell its own
//!   store lacks by asking the coordinator for that exact cell, so *any*
//!   node answers for the whole campaign with the coordinator's bytes.
//!
//! Layering: [`http`] is the workspace's one HTTP/1.1 codec (the server's
//! [`http::HttpConn`] and the keep-alive [`HttpClient`] share one
//! hardened reader and its limits; it lives here because this is the
//! lowest crate both `dvs-serve` and the worker reach), [`proto`] is
//! the pure JSON wire vocabulary and the cell renderers, [`coordinator`]
//! is the lock-protected admission/lease/retry/steal state machine (time
//! is passed in, so every transition is unit-testable without sleeping),
//! and [`worker`] is the pull-execute-push loop with its heartbeat
//! thread, over HTTP or by direct call. Everything
//! observable flows through `cluster.*` metrics on a shared
//! [`dvs_obs::MetricsRegistry`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod http;
pub mod proto;
pub mod worker;

pub use coordinator::{ClusterConfig, Coordinator, SubmitError};
pub use http::HttpClient;
pub use proto::{UnitRef, WireConfig};
pub use worker::{spawn_lane, spawn_worker, WorkerConfig, WorkerHandle};
