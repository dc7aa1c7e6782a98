//! The `pmt` prediction service: the daemon behind `pmt serve`.
//!
//! The paper's bet is that interval-model prediction is cheap enough to
//! replace simulation in the inner loop of design-space exploration;
//! after the prepared-profile and streaming-sweep work, every downstream
//! consumer of a profile is read-only shared state — exactly the shape
//! of a high-QPS service. This crate is that service:
//!
//! * [`Registry`] — named [`PreparedProfile`](pmt_core::PreparedProfile)s,
//!   prepared once at registration and shared read-only by every worker;
//! * [`engine`] — the functions that turn a wire request into a wire
//!   response. The `pmt` CLI calls the **same** functions, which is what
//!   makes a served [`ExploreResponse`](pmt_api::ExploreResponse)
//!   byte-identical to the file the equivalent `pmt explore --out` run
//!   writes;
//! * [`http`] — a minimal hand-rolled HTTP/1.1 layer over `std::net`
//!   (one request per connection, `Connection: close`), because the
//!   build environment is offline and the protocol surface is tiny;
//! * [`Server`] — the daemon: a worker thread pool with per-connection
//!   read and write deadlines, bounded in-flight sweeps (429 +
//!   `Retry-After` backpressure), one flight type through which
//!   identical explores coalesce and distinct predicts on one profile
//!   batch into one `BatchPredictor` pass, a bounded response cache, and
//!   [`Metrics`] counters surfaced at `GET /metrics`.
//!
//! The wire contract itself lives in [`pmt_api`]; see `docs/API.md` for
//! the endpoint reference.
//!
//! ```no_run
//! use pmt_serve::{Registry, ServeConfig, Server};
//!
//! let registry = std::sync::Arc::new(Registry::new(16));
//! // ... registry.register(profile) ...
//! let server = Server::start(ServeConfig::default(), registry).unwrap();
//! println!("serving on http://{}", server.addr());
//! server.join(); // blocks until stop()
//! ```

pub mod engine;
mod flight;
pub mod http;
mod metrics;
mod registry;
mod server;

pub use metrics::Metrics;
pub use registry::{RegisteredProfile, Registry};
pub use server::{ServeConfig, Server, StopHandle};
