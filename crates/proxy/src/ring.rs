//! Consistent-hash ring with virtual nodes.
//!
//! A static modulo router hashes a request modulo the node count, so
//! *every* membership change remaps almost the whole keyspace (for `n → n+1`
//! nodes, a share of `n/(n+1)` of all keys changes owner). The ring fixes
//! that: each node contributes `vnodes` points on a `u64` hash circle, a key
//! is owned by the first point clockwise of its hash, and adding or removing
//! one node only remaps the arcs that node's points covered — an expected
//! `1/n` of the keyspace, independently of which node churns.
//!
//! Virtual nodes smooth the arc lengths: with `v` points per node the
//! per-node load concentrates around `1/n` with relative deviation
//! `O(1/sqrt(v))`. The default of 64 keeps an 8-node ring within a few
//! percent of even.
//!
//! Hashing is FNV-1a over the key bytes (and over `node:replica` labels for
//! the points), finished with a 64-bit avalanche mix — raw FNV's high bits
//! barely move for short strings sharing a prefix, which clusters points on
//! one side of the circle and starves whole nodes. Everything is
//! deterministic across processes and runs, which the seeded cluster tests
//! and benches rely on.

use std::collections::BTreeMap;

/// Default virtual nodes per physical node.
pub const DEFAULT_VNODES: usize = 64;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Murmur3-style finalizer: circle position must depend on every input
    // bit, or keys/points sharing a prefix land on one arc.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A consistent-hash ring mapping string keys to `u32` node ids.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    /// hash point → node id owning the arc ending at that point.
    points: BTreeMap<u64, u32>,
}

impl HashRing {
    /// An empty ring whose nodes each contribute `vnodes` points
    /// (minimum 1).
    pub fn new(vnodes: usize) -> HashRing {
        HashRing {
            vnodes: vnodes.max(1),
            points: BTreeMap::new(),
        }
    }

    fn point_hash(node: u32, replica: usize) -> u64 {
        // The replica label is mixed in textually so point sets of distinct
        // nodes are uncorrelated even for adjacent ids.
        fnv1a(format!("node:{node}/vn:{replica}").as_bytes())
    }

    /// Add `node`'s points. Re-adding an existing node is a no-op (its
    /// points hash identically).
    pub fn add(&mut self, node: u32) {
        for r in 0..self.vnodes {
            self.points.insert(Self::point_hash(node, r), node);
        }
    }

    /// Remove `node`'s points. Unknown nodes are a no-op.
    pub fn remove(&mut self, node: u32) {
        for r in 0..self.vnodes {
            let h = Self::point_hash(node, r);
            // Two nodes could collide on a point hash; only remove our own.
            if self.points.get(&h) == Some(&node) {
                self.points.remove(&h);
            }
        }
    }

    /// Owner of `key`: the first point clockwise of `hash(key)`, wrapping.
    /// `None` on an empty ring.
    pub fn owner(&self, key: &str) -> Option<u32> {
        let h = fnv1a(key.as_bytes());
        self.points
            .range(h..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, node)| *node)
    }

    /// Fraction of `samples` synthetic keys owned by `node` — balance and
    /// churn diagnostics for tests and benches.
    pub fn share_of(&self, node: u32, samples: usize) -> f64 {
        if samples == 0 {
            return 0.0;
        }
        let owned = (0..samples)
            .filter(|i| self.owner(&format!("sample-key-{i}")) == Some(node))
            .count();
        owned as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(n: u32) -> HashRing {
        let mut ring = HashRing::new(DEFAULT_VNODES);
        for node in 0..n {
            ring.add(node);
        }
        ring
    }

    #[test]
    fn owner_is_deterministic_and_total() {
        let ring = ring_of(8);
        for i in 0..100 {
            let key = format!("/paper/page.jsp?p={i}");
            let a = ring.owner(&key).unwrap();
            let b = ring.owner(&key).unwrap();
            assert_eq!(a, b);
            assert!(a < 8);
        }
        assert_eq!(HashRing::new(64).owner("x"), None, "empty ring");
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = ring_of(8);
        for node in 0..8 {
            let share = ring.share_of(node, 8000);
            // 1/8 = 0.125; 64 vnodes keep each node within a loose band.
            assert!(
                (0.04..0.30).contains(&share),
                "node {node} owns share {share}"
            );
        }
    }

    #[test]
    fn removing_one_node_remaps_only_its_arcs() {
        let mut ring = ring_of(8);
        let keys: Vec<String> = (0..4000).map(|i| format!("key-{i}")).collect();
        let before: Vec<u32> = keys.iter().map(|k| ring.owner(k).unwrap()).collect();
        let victim_share = ring.share_of(3, 4000);
        ring.remove(3);
        let mut moved = 0usize;
        for (k, owner_before) in keys.iter().zip(&before) {
            let owner_after = ring.owner(k).unwrap();
            if owner_after != *owner_before {
                moved += 1;
                assert_eq!(
                    *owner_before, 3,
                    "only the removed node's keys may move (key {k})"
                );
            }
            assert_ne!(owner_after, 3, "removed node must own nothing");
        }
        let moved_share = moved as f64 / keys.len() as f64;
        // The moved share equals the victim's share of the sampled keys —
        // ~1/8, and never the n/(n+1) avalanche of modulo routing.
        assert!(
            (moved_share - victim_share).abs() < 0.05,
            "moved {moved_share} vs victim share {victim_share}"
        );
        assert!(moved_share < 0.3, "modulo-style avalanche: {moved_share}");
    }

    #[test]
    fn adding_a_node_back_restores_its_keys() {
        let mut ring = ring_of(4);
        let keys: Vec<String> = (0..1000).map(|i| format!("k{i}")).collect();
        let before: Vec<u32> = keys.iter().map(|k| ring.owner(k).unwrap()).collect();
        ring.remove(2);
        ring.add(2);
        let after: Vec<u32> = keys.iter().map(|k| ring.owner(k).unwrap()).collect();
        assert_eq!(before, after, "add(remove(ring)) must be identity");
    }

    #[test]
    fn more_vnodes_tighten_balance() {
        let spread = |vnodes: usize| {
            let mut ring = HashRing::new(vnodes);
            for n in 0..8 {
                ring.add(n);
            }
            let shares: Vec<f64> = (0..8).map(|n| ring.share_of(n, 4000)).collect();
            let max = shares.iter().cloned().fold(0.0f64, f64::max);
            let min = shares.iter().cloned().fold(1.0f64, f64::min);
            max - min
        };
        assert!(
            spread(128) < spread(2),
            "128 vnodes must spread tighter than 2"
        );
    }
}
