//! # dynproxy — proxy-based acceleration of dynamically generated content
//!
//! A full Rust reproduction of *Datta, Dutta, Thomas, VanderMeer, Suresha,
//! Ramamritham: "Proxy-Based Acceleration of Dynamically Generated Content
//! on the World Wide Web: An Approach and Implementation", ACM SIGMOD
//! 2002* — the Dynamic Proxy Cache (DPC) + Back End Monitor (BEM)
//! architecture, every substrate its evaluation ran on, and a benchmark
//! harness regenerating every table and figure.
//!
//! This facade crate re-exports the workspace. Start with:
//!
//! * [`core`] ([`dpc_core`]) — the contribution: tag protocol, cache
//!   directory + freeList, BEM tagging API, DPC slot store and assembler;
//! * [`proxy`] ([`dpc_proxy`]) — the proxy harness (pass-through /
//!   page-cache / ESI / DPC modes) and the Figure 4 testbed;
//! * [`appserver`] ([`dpc_appserver`]) — the script engine and the demo
//!   applications (synthetic paper site, BooksOnline, brokerage);
//! * [`policy`] ([`dpc_policy`]) — the replacement policies (LRU, CLOCK,
//!   FIFO, none) and the workspace's key and content hashes;
//! * [`model`] ([`dpc_model`]) — the §5 closed-form analytical model;
//! * [`net`] / [`http`] / [`repository`] / [`firewall`] / [`workload`] —
//!   the substrates (metered simulated network, HTTP/1.1, content
//!   repository, scanning firewall, request generator).
//!
//! ```
//! use dynproxy::core::prelude::*;
//! use std::time::Duration;
//!
//! let bem = Bem::new(BemConfig::default().with_capacity(16));
//! let store = FragmentStore::new(16);
//! let render = || {
//!     let mut w = bem.template_writer();
//!     w.literal(b"<html>");
//!     w.fragment(
//!         &FragmentId::new("nav"),
//!         FragmentPolicy::ttl(Duration::from_secs(60)),
//!         |out| out.extend_from_slice(b"<nav>...</nav>"),
//!     );
//!     w.literal(b"</html>");
//!     w.finish()
//! };
//! let first = render(); // carries the fragment inside a SET instruction
//! let second = render(); // carries only a GET instruction
//! assert!(second.len() < first.len());
//! let page1 = assemble(&first, &store).unwrap();
//! let page2 = assemble(&second, &store).unwrap();
//! assert_eq!(page1.html, page2.html);
//! ```

pub use dpc_appserver as appserver;
pub use dpc_core as core;
pub use dpc_firewall as firewall;
pub use dpc_http as http;
pub use dpc_metrics as metrics;
pub use dpc_model as model;
pub use dpc_net as net;
pub use dpc_policy as policy;
pub use dpc_proxy as proxy;
pub use dpc_repository as repository;
pub use dpc_workload as workload;
