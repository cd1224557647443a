//! Cluster membership: who is on the ring, and how nodes come and go.
//!
//! Three transitions, mirroring the lifecycle a real fleet goes through:
//!
//! * **join** — a new node id enters `Alive` and its points are added to
//!   the ring. Nothing else moves: the node fills the slots of the pages
//!   it now owns from the origin's node-miss `SET`s as it serves them, so
//!   a join costs no stop-the-world rebalance and evicts nothing anywhere.
//! * **leave** — a graceful departure: the node's points come off the ring
//!   and traffic routes around it.
//! * **fail** — a crash: the same ring effect as leave. Nothing is lost
//!   with the node but its slot store: invalidations scrub every member
//!   as they happen, so no node holds state another one needs.
//!
//! Every transition bumps a membership *epoch* so observers can cheaply
//! detect "the ring changed under me".

use std::collections::HashMap;

use crate::ring::HashRing;

/// Lifecycle state of one node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    Alive,
    /// Gracefully departed.
    Left,
    /// Crashed.
    Failed,
}

/// The ring plus per-node lifecycle states.
#[derive(Debug)]
pub struct Membership {
    states: HashMap<u32, NodeState>,
    ring: HashRing,
    epoch: u64,
}

impl Membership {
    /// Empty membership over a ring with `vnodes` points per node.
    pub fn new(vnodes: usize) -> Membership {
        Membership {
            states: HashMap::new(),
            ring: HashRing::new(vnodes),
            epoch: 0,
        }
    }

    /// Monotonic change counter (bumped by every successful transition).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying ring (alive nodes only).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// `node` enters the cluster. Returns false (no-op) when it is already
    /// alive. Rejoining a departed/failed id is allowed — a replacement
    /// process taking over the identity.
    pub fn join(&mut self, node: u32) -> bool {
        if self.states.get(&node) == Some(&NodeState::Alive) {
            return false;
        }
        self.states.insert(node, NodeState::Alive);
        self.ring.add(node);
        self.epoch += 1;
        true
    }

    /// Graceful departure. Returns false when the node was not alive.
    pub fn leave(&mut self, node: u32) -> bool {
        self.transition_out(node, NodeState::Left)
    }

    /// Crash. Returns false when the node was not alive.
    pub fn fail(&mut self, node: u32) -> bool {
        self.transition_out(node, NodeState::Failed)
    }

    fn transition_out(&mut self, node: u32, to: NodeState) -> bool {
        if self.states.get(&node) != Some(&NodeState::Alive) {
            return false;
        }
        self.states.insert(node, to);
        self.ring.remove(node);
        self.epoch += 1;
        true
    }

    /// Current state of `node` (None = never seen).
    pub fn state(&self, node: u32) -> Option<NodeState> {
        self.states.get(&node).copied()
    }

    pub fn is_alive(&self, node: u32) -> bool {
        self.states.get(&node) == Some(&NodeState::Alive)
    }

    /// Alive node ids, sorted.
    pub fn alive(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .states
            .iter()
            .filter(|(_, s)| **s == NodeState::Alive)
            .map(|(n, _)| *n)
            .collect();
        out.sort_unstable();
        out
    }

    /// Ring owner of `key` among alive nodes.
    pub fn owner(&self, key: &str) -> Option<u32> {
        self.ring.owner(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_transitions_and_epoch() {
        let mut m = Membership::new(16);
        assert!(m.join(0));
        assert!(m.join(1));
        assert!(!m.join(1), "double join is a no-op");
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.alive(), vec![0, 1]);

        assert!(m.leave(0));
        assert_eq!(m.state(0), Some(NodeState::Left));
        assert!(!m.leave(0), "leaving twice is a no-op");
        assert!(!m.fail(0), "a departed node cannot fail");
        assert_eq!(m.alive(), vec![1]);

        assert!(m.fail(1));
        assert_eq!(m.state(1), Some(NodeState::Failed));
        assert!(m.alive().is_empty());
        assert_eq!(m.owner("anything"), None);
        assert_eq!(m.epoch(), 4);
    }

    #[test]
    fn rejoin_restores_routing() {
        let mut m = Membership::new(16);
        for n in 0..3 {
            m.join(n);
        }
        let owner_before = m.owner("k-42").unwrap();
        m.fail(owner_before);
        assert_ne!(m.owner("k-42"), Some(owner_before));
        assert!(m.join(owner_before), "a failed id may rejoin");
        assert_eq!(m.owner("k-42"), Some(owner_before));
    }

    #[test]
    fn departed_nodes_own_nothing() {
        let mut m = Membership::new(32);
        for n in 0..4 {
            m.join(n);
        }
        m.leave(2);
        for i in 0..500 {
            assert_ne!(m.owner(&format!("key{i}")), Some(2));
        }
    }
}
