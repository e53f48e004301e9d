//! `dvs-serve` — the campaign server that puts the experiment engine
//! behind a network API.
//!
//! A dependency-free, multi-threaded `std::net` TCP server speaking
//! minimal HTTP/1.1 with a JSON API:
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /v1/campaigns` | submit an experiment grid; `429` past the bounded queue, `404` on a cluster worker |
//! | `GET /v1/campaigns` | list campaigns and their states |
//! | `GET /v1/campaigns/{id}` | poll one campaign's status/progress/results |
//! | `GET /v1/results?...` | point query answered straight from the [`dvs_core::ResultStore`]; a cluster worker reads a miss through to its coordinator |
//! | `GET /v1/metrics` | the [`dvs_obs`] metrics snapshot (text or JSON) |
//! | `GET /v1/healthz` | liveness probe |
//! | `POST /v1/admin/shutdown` | graceful drain and exit |
//!
//! Layering mirrors the rest of the workspace: the wire protocol
//! (framing, limits, timeouts) is [`dvs_cluster::http`], the one HTTP/1.1
//! codec the server, the cluster worker and `dvs-loadgen` share (it sits
//! in `dvs-cluster`, the lowest crate both sides reach); [`api`] is pure
//! JSON ↔ engine translation; and [`server`] wires accept loop, routing,
//! and graceful shutdown together. The campaigns themselves belong to a
//! [`dvs_cluster::Coordinator`], the one campaign state machine: every
//! node runs one, and a node that does not coordinate a cluster runs its
//! campaigns through an in-process lane ([`dvs_cluster::spawn_lane`]) that
//! leases and completes them by direct call, so bounded admission, drain,
//! status and results take one path for zero or N workers. A cluster
//! worker node runs no campaigns of its own, so no process runs two
//! engines.
//! Everything observable flows through `serve.*` and `cluster.*` metrics
//! on a shared [`dvs_obs::MetricsRegistry`].

pub mod api;
pub mod server;

pub use server::{Role, Server, ServerConfig};
