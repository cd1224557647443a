//! The firewall engine: rule set, verdicts, and scan-cost accounting.
//!
//! Every byte that crosses the site boundary is scanned once (`y` per
//! byte); the engine both produces allow/block verdicts and meters the
//! total scan work, which the Figure 3(a) bench compares against the DPC's
//! assembly-scan work.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::multi::MultiPattern;

/// What to do when a rule matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Matching traffic passes (e.g. logging/accounting rules).
    Allow,
    /// Matching traffic is dropped.
    Block,
}

/// One firewall rule: a byte signature and an action.
#[derive(Debug, Clone)]
pub struct Rule {
    pub name: String,
    pub signature: Vec<u8>,
    pub action: Action,
}

impl Rule {
    pub fn block(name: &str, signature: &[u8]) -> Rule {
        Rule {
            name: name.to_owned(),
            signature: signature.to_vec(),
            action: Action::Block,
        }
    }

    pub fn allow(name: &str, signature: &[u8]) -> Rule {
        Rule {
            name: name.to_owned(),
            signature: signature.to_vec(),
            action: Action::Allow,
        }
    }
}

/// Result of scanning one payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    /// False when a Block rule matched.
    pub allowed: bool,
    /// Names of matched rules (deduplicated, rule order).
    pub matched: Vec<String>,
    /// Simulated scan cost for this payload (`y × bytes`).
    pub cost: Duration,
}

struct Compiled {
    rules: Vec<Rule>,
    /// Pattern `i` is `rules[i].signature`.
    automaton: MultiPattern,
}

impl Compiled {
    fn new(rules: Vec<Rule>) -> Compiled {
        let signatures: Vec<&[u8]> = rules.iter().map(|r| r.signature.as_slice()).collect();
        Compiled {
            automaton: MultiPattern::new(&signatures),
            rules,
        }
    }
}

/// A packet/payload-scanning firewall with linear per-byte cost.
pub struct Firewall {
    compiled: RwLock<Compiled>,
    /// Per-byte scan cost `y`, in picoseconds (integer arithmetic keeps the
    /// counters exact; defaults to 1000 ps = 1 ns/byte ≈ 1 GB/s scanning).
    cost_per_byte_ps: u64,
    bytes_scanned: AtomicU64,
    payloads_scanned: AtomicU64,
    blocked: AtomicU64,
}

impl Firewall {
    /// Firewall with the given rules and a per-byte cost of `y`.
    pub fn new(rules: Vec<Rule>, cost_per_byte: Duration) -> Firewall {
        Firewall {
            compiled: RwLock::new(Compiled::new(rules)),
            cost_per_byte_ps: cost_per_byte.as_nanos() as u64 * 1000,
            bytes_scanned: AtomicU64::new(0),
            payloads_scanned: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
        }
    }

    /// A permissive firewall with a handful of classic 2002-era signatures
    /// and 1 ns/byte scan cost.
    pub fn with_default_rules() -> Firewall {
        Firewall::new(
            vec![
                Rule::block("cmd-exe-traversal", b"../../winnt/system32/cmd.exe"),
                Rule::block("code-red", b"default.ida?NNNNNNNN"),
                Rule::block("sql-drop", b"; DROP TABLE"),
                Rule::allow("watch-admin", b"/admin/"),
            ],
            Duration::from_nanos(1),
        )
    }

    /// Scan one payload, producing a verdict and accounting the work. The
    /// matched names are built only when some rule matched: a clean
    /// payload allocates nothing.
    pub fn scan(&self, payload: &[u8]) -> ScanOutcome {
        self.bytes_scanned
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.payloads_scanned.fetch_add(1, Ordering::Relaxed);
        let compiled = self.compiled.read();
        let mut matched = Vec::new();
        let mut allowed = true;
        for pi in compiled.automaton.matching_patterns(payload) {
            let rule = &compiled.rules[pi];
            matched.push(rule.name.clone());
            if rule.action == Action::Block {
                allowed = false;
            }
        }
        if !allowed {
            self.blocked.fetch_add(1, Ordering::Relaxed);
        }
        ScanOutcome {
            allowed,
            matched,
            cost: self.cost_of(payload.len() as u64),
        }
    }

    /// Replace the rule set (recompiles the automaton).
    pub fn set_rules(&self, rules: Vec<Rule>) {
        *self.compiled.write() = Compiled::new(rules);
    }

    /// Simulated cost of scanning `bytes` bytes (`y × bytes`).
    pub fn cost_of(&self, bytes: u64) -> Duration {
        Duration::from_nanos(bytes * self.cost_per_byte_ps / 1000)
    }

    /// Total simulated scan cost so far.
    pub fn total_cost(&self) -> Duration {
        self.cost_of(self.bytes_scanned.load(Ordering::Relaxed))
    }

    /// (bytes scanned, payloads scanned, payloads blocked).
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.bytes_scanned.load(Ordering::Relaxed),
            self.payloads_scanned.load(Ordering::Relaxed),
            self.blocked.load(Ordering::Relaxed),
        )
    }

    /// Reset counters (between benchmark phases).
    pub fn reset(&self) {
        self.bytes_scanned.store(0, Ordering::Relaxed);
        self.payloads_scanned.store(0, Ordering::Relaxed);
        self.blocked.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_on_block_rule() {
        let fw = Firewall::with_default_rules();
        let out = fw.scan(b"GET /x?q=; DROP TABLE users HTTP/1.1");
        assert!(!out.allowed);
        assert_eq!(out.matched, vec!["sql-drop".to_owned()]);
        assert_eq!(fw.counters().2, 1);
    }

    #[test]
    fn allow_rule_matches_without_blocking() {
        let fw = Firewall::with_default_rules();
        let out = fw.scan(b"GET /admin/panel HTTP/1.1");
        assert!(out.allowed);
        assert_eq!(out.matched, vec!["watch-admin".to_owned()]);
    }

    #[test]
    fn clean_traffic_passes() {
        let fw = Firewall::with_default_rules();
        let out = fw.scan(b"GET /catalog.jsp?categoryID=Fiction HTTP/1.1");
        assert!(out.allowed);
        assert!(out.matched.is_empty());
    }

    #[test]
    fn cost_is_linear_in_bytes() {
        let fw = Firewall::new(Vec::new(), Duration::from_nanos(2));
        let a = fw.scan(&vec![0u8; 1000]).cost;
        let b = fw.scan(&vec![0u8; 2000]).cost;
        assert_eq!(a, Duration::from_micros(2));
        assert_eq!(b, Duration::from_micros(4));
        assert_eq!(fw.total_cost(), Duration::from_micros(6));
    }

    #[test]
    fn empty_rule_set_allows_everything() {
        let fw = Firewall::new(Vec::new(), Duration::from_nanos(1));
        assert!(fw.scan(b"anything at all").allowed);
    }

    #[test]
    fn set_rules_recompiles() {
        let fw = Firewall::new(Vec::new(), Duration::from_nanos(1));
        assert!(fw.scan(b"evil-token").allowed);
        fw.set_rules(vec![Rule::block("evil", b"evil-token")]);
        assert!(!fw.scan(b"some evil-token here").allowed);
    }

    #[test]
    fn reset_zeroes_counters() {
        let fw = Firewall::with_default_rules();
        fw.scan(b"x");
        fw.reset();
        assert_eq!(fw.counters(), (0, 0, 0));
    }

    #[test]
    fn sub_nanosecond_costs_accumulate_exactly() {
        // y = 0.5 ns/byte via 500 ps: 3 bytes -> 1.5 ns, truncation happens
        // only at Duration conversion.
        let fw = Firewall {
            compiled: RwLock::new(Compiled::new(Vec::new())),
            cost_per_byte_ps: 500,
            bytes_scanned: AtomicU64::new(0),
            payloads_scanned: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
        };
        assert_eq!(fw.cost_of(4), Duration::from_nanos(2));
    }
}
