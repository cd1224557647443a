//! Minimal blocking HTTP/1.1 implementation.
//!
//! The paper's testbed spoke HTTP between WebLoad clients, the ISA Server
//! proxy and IIS. The allowed dependency set contains no HTTP stack, so this
//! crate provides one: request/response types, an incremental parser, a
//! serializer, a keep-alive event-loop server, and a pooling client.
//! It runs over any [`dpc_net::Duplex`] stream, so the same code serves real
//! TCP sockets and the metered simulated wire.
//!
//! Scope is deliberately the subset the testbed needs (and all the testbed
//! needs): `GET`/`POST`/`PURGE`, `Content-Length` bodies, keep-alive and
//! `Connection: close`, query strings, and arbitrary headers. There is no
//! chunked transfer-encoding, TLS, or HTTP/2 — none of which existed in or
//! matter to the 2002 evaluation.
//!
//! The serving path is readiness-driven: [`Server`] multiplexes
//! connections over a set of event loops ([`server`]) — one by default,
//! N (`Server::with_loops`) to scale the front across cores with
//! least-connections accept distribution — and runs each handler inline
//! on the loop that parsed its request, so idle keep-alive connections
//! don't pin threads and a request crosses no thread inside the server.
//! Queued response bytes are charged against per-connection and global
//! output budgets with slow-client eviction (write-side admission
//! control), so a reader that never drains can't balloon server memory.
//! Response bodies are ropes ([`message::Body`]) written to the wire with
//! vectored I/O, keeping the DPC's assembled fragments zero-copy end to
//! end.

pub mod client;
pub mod error;
pub mod message;
pub mod parse;
pub mod serialize;
pub mod server;
pub mod uri;

pub use client::Client;
pub use error::HttpError;
pub use message::{Body, Headers, Method, Request, Response, Status};
pub use server::{
    Handler, LoopCache, LoopCacheFactory, LoopStats, Server, ServerHandle, ServerStats,
};
pub use uri::Uri;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, HttpError>;
