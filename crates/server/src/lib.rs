//! `mlake-server`: the lake's wire (DESIGN.md §14).
//!
//! A from-scratch, zero-dependency HTTP/1.1 service layer over the
//! [`mlake_core::ModelLake`] facade:
//!
//! * **Protocol** — `mlake-proto`'s `ApiRequest`/`ApiResponse` JSON on a
//!   hand-rolled HTTP/1.1 subset ([`http`]): keep-alive,
//!   `Content-Length` bodies, one in-flight request per connection.
//! * **Execution** — a request runs on the connection thread that read
//!   it; parallel regions inside it share the one `mlake-par` pool. Past
//!   [`ServerConfig::max_in_flight`] lake requests at once the server
//!   sheds load with `503` + `Retry-After` at the edge ([`server`]).
//! * **Tenancy** — `/v1/lakes/{lake}/...` routes through a
//!   [`router::LakeRouter`] holding any number of lakes, in-process or
//!   opened from disk.
//! * **Shutdown** — [`server::Server::shutdown`] stops accepting, lets
//!   in-flight requests finish, then syncs every lake: no acknowledged
//!   write is ever lost.
//!
//! ```ignore
//! let router = Arc::new(LakeRouter::new());
//! router.register("main", ModelLake::new(LakeConfig::default()));
//! let server = Server::bind(router, "127.0.0.1:0", ServerConfig::default())?;
//! println!("serving on {}", server.addr());
//! // ... later:
//! server.shutdown()?;
//! ```

pub mod api;
pub mod http;
pub mod router;
pub mod server;

pub use api::Api;
pub use router::LakeRouter;
pub use server::{Server, ServerConfig};
