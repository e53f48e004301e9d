//! `dvs-serve` — the campaign server that puts the experiment engine
//! behind a network API.
//!
//! A dependency-free, multi-threaded `std::net` TCP server speaking
//! minimal HTTP/1.1 with a JSON API:
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /v1/campaigns` | submit an experiment grid to the bounded job queue |
//! | `GET /v1/campaigns` | list campaigns and their states |
//! | `GET /v1/campaigns/{id}` | poll one campaign's status/progress/results |
//! | `GET /v1/results?...` | point query answered straight from the [`dvs_core::ResultStore`] |
//! | `GET /v1/metrics` | the [`dvs_obs`] metrics snapshot (text or JSON) |
//! | `GET /v1/healthz` | liveness probe |
//! | `POST /v1/admin/shutdown` | graceful drain and exit |
//!
//! Layering mirrors the rest of the workspace: the wire protocol
//! (framing, limits, timeouts) is [`dvs_cluster::http`], the one HTTP/1.1
//! codec the server, the cluster worker and `dvs-loadgen` share (it sits
//! in `dvs-cluster`, the lowest crate both sides reach); [`api`] is pure
//! JSON ↔ engine translation, [`jobs`] owns the bounded campaign queue
//! and executor threads over [`dvs_core::Evaluator`], and [`server`]
//! wires accept loop, routing, and graceful shutdown together.
//! Everything observable flows through `serve.*` metrics on a shared
//! [`dvs_obs::MetricsRegistry`].

pub mod api;
pub mod jobs;
pub mod server;

pub use jobs::{JobManager, SubmitError};
pub use server::{Server, ServerConfig};
