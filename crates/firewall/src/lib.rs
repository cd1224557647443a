//! # dpc-firewall — packet-scanning firewall simulator
//!
//! §5's scan-cost analysis models the firewall as a linear-time byte
//! scanner: "regardless of whether the dynamic proxy cache is used, each
//! packet is scanned by the firewall … Since string matching algorithms
//! (e.g., KMP \[18\]) are linear-time algorithms, we can consider the
//! scanning costs for the firewall and the dynamic proxy cache to be of the
//! same order."
//!
//! This crate implements that scanner for real:
//!
//! * [`kmp`] — Knuth–Morris–Pratt single-pattern matching (the paper's
//!   reference \[18\]);
//! * [`multi`] — Aho–Corasick multi-pattern matching (KMP failure functions
//!   generalized to a pattern trie), which is what a rule-set firewall
//!   actually runs. The automaton is one flat transition table
//!   (`state * 256 + byte`) with per-state accept bitsets sized to the
//!   rule count, so any number of rules fits; the scan skips bytes that
//!   leave it at the root, which on clean traffic is nearly all of them;
//! * [`engine`] — the firewall itself: a rule set, per-byte cost accounting
//!   (the model's `y`), and allow/block verdicts. A clean payload is
//!   scanned without allocating.
//!
//! The per-byte cost parameter lets the Figure 3(a) bench compare
//! `scanCost_NC = B_NC·y` against `scanCost_C = B_C·(y+z) ≈ 2·B_C·y` with
//! measured byte counts.

pub mod engine;
pub mod kmp;
pub mod multi;

pub use engine::{Action, Firewall, Rule, ScanOutcome};
pub use kmp::Kmp;
pub use multi::MultiPattern;
