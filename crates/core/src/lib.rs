//! # dpc-core — Dynamic Proxy Cache and Back End Monitor
//!
//! This crate implements the primary contribution of *Datta et al.,
//! "Proxy-Based Acceleration of Dynamically Generated Content on the World
//! Wide Web", SIGMOD 2002*: caching dynamic-content **fragments** at a proxy
//! while the **layout** of every page is computed per-request at the origin.
//!
//! The moving parts, in the paper's vocabulary:
//!
//! * [`tag`] — the instruction grammar written into page *templates* by the
//!   BEM and interpreted by the DPC: `SET` (store this fresh fragment under
//!   a `dpcKey`, and include it in the page) and `GET` (splice the cached
//!   fragment stored under a `dpcKey` into the page).
//! * [`directory`] — the BEM's **cache directory**
//!   (`fragmentID → {dpcKey, isValid, ttl}`) plus the **freeList** of
//!   reusable keys, one table under one lock. Invalidation and
//!   replacement only mutate the directory; the DPC is never told (the
//!   shared integer key makes explicit coherence messages unnecessary —
//!   the next `SET` simply overwrites the slot).
//! * [`bem`] — the Back End Monitor: the tagging API scripts wrap around
//!   cacheable code blocks, the hit/miss decision, and template emission.
//! * [`store`] / [`mod@assemble`] — the DPC side: an in-memory slot array
//!   indexed by `dpcKey` (striped over a few locks), and the
//!   single-pass scanner/assembler that turns a template plus cached
//!   fragments into the final page — as a flat buffer or as a zero-copy
//!   rope of shared segments. Each slot keeps its content hash beside its
//!   bytes, so the page's ETag identity costs O(fragments), not O(bytes).
//! * [`policy`] — the replacement policies (LRU, CLOCK, FIFO or none),
//!   beside the workspace's key and content hashes. TTL and
//!   data-dependency invalidation live in the [`directory`]; a block's
//!   dependencies are the repository rows its code block read.
//! * [`objects`] — the BEM's secondary function: caching intermediate
//!   programmatic objects (e.g. user-profile objects) so scripts do not
//!   repeat back-end calls.
//!
//! The crate is transport-agnostic: `dpc-proxy` wires these pieces onto
//! HTTP. Everything here is synchronous and thread-safe.
//!
//! ## Quick tour
//!
//! ```
//! use dpc_core::prelude::*;
//! use std::time::Duration;
//!
//! // Origin side: a BEM with room for 1024 fragments.
//! let bem = Bem::new(BemConfig::default().with_capacity(1024));
//!
//! // A "script" produces a page through a TemplateWriter.
//! let mut w = bem.template_writer();
//! w.literal(b"<html><body>");
//! w.fragment(
//!     &FragmentId::with_params("navbar", &[("user", "none")]),
//!     FragmentPolicy::ttl(Duration::from_secs(30)),
//!     |out| out.extend_from_slice(b"<nav>home | books</nav>"),
//! );
//! w.literal(b"</body></html>");
//! let template = w.finish();
//!
//! // Proxy side: a DPC store assembles the page from the template.
//! let store = FragmentStore::new(1024);
//! let page = assemble(&template, &store).unwrap();
//! assert_eq!(
//!     page.html,
//!     b"<html><body><nav>home | books</nav></body></html>".to_vec()
//! );
//!
//! // Second request: the fragment is a directory hit, the template carries
//! // only a GET instruction, and the DPC fills it from its slot.
//! let mut w = bem.template_writer();
//! w.literal(b"<html><body>");
//! w.fragment(
//!     &FragmentId::with_params("navbar", &[("user", "none")]),
//!     FragmentPolicy::ttl(Duration::from_secs(30)),
//!     |out| out.extend_from_slice(b"<nav>home | books</nav>"),
//! );
//! w.literal(b"</body></html>");
//! let template2 = w.finish();
//! assert!(template2.len() < template.len());
//! let page2 = assemble(&template2, &store).unwrap();
//! assert_eq!(page2.html, page.html);
//! ```

pub mod assemble;
pub mod bem;
pub mod config;
pub mod directory;
pub mod epoch;
pub mod error;
pub mod flight;
pub mod key;
pub mod objects;
pub mod policy;
pub mod proto;
pub mod stats;
pub mod store;
pub mod tag;

pub use assemble::{assemble, assemble_rope, salvage, AssembledPage, AssembledRope, AssemblyStats};
pub use bem::{Bem, FragmentPolicy, TemplateWriter};
pub use config::{BemConfig, ReplacePolicy};
pub use directory::{CacheDirectory, Lookup};
pub use epoch::{stripe_of, CoherencyEpoch, ReadSet, Stamp};
pub use error::{AssembleError, CoreError};
pub use flight::{FlightCounters, FlightGroup, FlightLeader, Publish, Wait};
pub use key::{DpcKey, FragmentId};
pub use objects::ObjectCache;
pub use policy::{content_hash, fnv1a, LruReplacer, Replacer};
pub use store::{FragmentStore, DEFAULT_SHARDS};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::assemble::{assemble, assemble_rope, AssembledPage, AssembledRope};
    pub use crate::bem::{Bem, FragmentPolicy, TemplateWriter};
    pub use crate::config::{BemConfig, ReplacePolicy};
    pub use crate::key::{DpcKey, FragmentId};
    pub use crate::store::FragmentStore;
    pub use crate::tag::is_instrumented;
}
