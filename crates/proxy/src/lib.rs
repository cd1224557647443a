//! # dpc-proxy — the proxy harness and the Figure 4 testbed
//!
//! One reverse-proxy front end, four interchangeable modes, so every
//! comparison in the paper's §3 runs against the same origin and wire:
//!
//! * [`modes::ProxyMode::PassThrough`] — no caching (the "no cache"
//!   baseline; combined with a BEM-disabled origin this measures `B_nc`);
//! * [`modes::ProxyMode::PageCache`] — URL-keyed full-page caching
//!   (§3.2.1), exhibiting the Bob/Alice wrong-page hazard and
//!   over-invalidation by construction;
//! * [`modes::ProxyMode::Esi`] — template-based dynamic page assembly
//!   (§3.2.2): static per-path templates whose `include` slots are fetched
//!   from per-fragment origin endpoints and cached by URL;
//! * [`modes::ProxyMode::Dpc`] — the paper's contribution: scan the
//!   instrumented origin response, `SET`/`GET` against the slot store,
//!   deliver the assembled page; on any assembly failure, transparently
//!   refetch with `X-DPC-Bypass` so users always get correct bytes.
//!
//! One multi-node tier builds on the front: [`ring_cluster`], the paper's
//! §7 extension made dynamic — consistent-hash placement over a
//! [`ring::HashRing`], join/leave/fail [`membership`], per-node placement
//! tracked by the directory's `stored_nodes` bitmask (a node fills the
//! slots it lacks from the origin's node-miss `SET`s), and one
//! invalidation sink on the origin's BEM that scrubs freed slots from
//! every member inside the update.
//!
//! DPC mode can also serve assembled pages from a page tier: the node's
//! one [`PageCache`] over one [`tier::PageTier`], which the proxy handler
//! probes before it assembles — one [`tier::Page`] type, one LRU, one
//! stamp-and-expiry check ([`PageCache::verdict`]), one install
//! ([`PageCache::install`]) and one hit response
//! ([`tier::page_response`]).
//!
//! [`testbed`] reconstructs the paper's Figure 4: clients → (external box:
//! firewall + proxy/DPC) → wire under measurement → (origin box: web
//! server + BEM + repository), all over the metered [`dpc_net::SimNetwork`]
//! with Sniffer-style byte accounting at the origin↔external boundary.
//!
//! [`node`] builds one proxy-side node — page cache, ESI assembler,
//! [`Proxy`] and its metric collectors — the same way for the testbed's
//! lone proxy and for every ring member; the two differ only in their
//! [`node::NodeSpec`].

pub mod esi;
pub mod front;
pub mod membership;
pub mod metrics;
pub mod modes;
pub mod node;
pub mod page_cache;
pub mod ring;
pub mod ring_cluster;
pub mod testbed;
pub mod tier;

pub use front::{Proxy, ProxyStats};
pub use modes::ProxyMode;
pub use page_cache::{PageCache, PageCacheStats};
pub use ring_cluster::{RingCluster, RingConfig};
pub use testbed::{Testbed, TestbedConfig};
pub use tier::page_key;
