//! # dpc-cluster — the DPC's cluster tier
//!
//! The paper's §7 sketches distributed DPCs but assumes a fixed fleet: the
//! directory's `stored_nodes` bitmask tracks which nodes hold each
//! fragment, and request routing is a static hash. This crate supplies the
//! machinery a *dynamic* fleet needs, as a transport-light library that
//! `dpc-proxy` composes into a running cluster (core → front → cluster,
//! the third serving tier):
//!
//! * [`ring`] — a consistent-hash ring with virtual nodes: membership
//!   changes remap an expected `1/n` of the keyspace instead of the
//!   modulo router's near-total avalanche.
//! * [`membership`] — join / leave / fail lifecycle over the ring, with an
//!   epoch counter so observers detect churn cheaply.
//! * [`peer`] — each node's peer endpoint: a per-node accept loop
//!   answering peer-fetch (lazy key-range handoff after a join) over
//!   [`dpc_net::frame`] messages on the shared [`dpc_net::SimNetwork`],
//!   and the slot scrub an invalidation runs on every member.
//!
//! Coherence needs no messages between nodes: the BEM's directory holds
//! one stored bit per node and fragment, and the ring applies each
//! invalidation to every member's slot store inside the update itself.

pub mod membership;
pub mod peer;
pub mod ring;

pub use membership::{Membership, NodeState};
pub use peer::{peer_addr, peer_fetch, PeerNode, PeerServer, PeerStats};
pub use ring::{HashRing, DEFAULT_VNODES};
