//! The firewall against a naive oracle, on equivalent questions: for a
//! seeded rule set and payload, `Firewall::scan` (one Aho–Corasick pass
//! over the flat table, with the root skip) must give the verdict and the
//! matched names a per-rule KMP scan gives.
//!
//! Rule sets of 1, 4, 32 and 100 signatures mix overlapping signatures
//! over a small alphabet, substrings and extensions of earlier ones,
//! binary bytes, and one signature carried by two rules. Payloads plant
//! signatures at the start, at the end, after long runs of bytes the
//! automaton skips at the root, and behind false starts that leave the
//! root and fall back. The 100-rule sets put matches past pattern 64, so
//! an accept set of one 64-bit word fails here.

use std::time::Duration;

use dpc_firewall::{Action, Firewall, Kmp, MultiPattern, Rule};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Bytes signatures are drawn from; filler never uses them, so a filler
/// run is exactly what the scan skips at the root.
const SIG_ALPHABET: &[u8] = b"abcdefgh\x00\x01\x02\xfe\xff";
const FILLER: &[u8] = b" .,;:0123456789-_=+";

fn signatures(n: usize, rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut sigs: Vec<Vec<u8>> = Vec::with_capacity(n);
    for i in 0..n {
        let sig = match (i % 5, sigs.is_empty()) {
            // Short, over three letters: overlaps with everything.
            (0, _) | (_, true) => (0..2 + rng.below(4))
                .map(|_| b"abc"[rng.below(3)])
                .collect(),
            // A substring of an earlier signature.
            (1, false) => {
                let base = &sigs[rng.below(sigs.len())];
                let start = rng.below(base.len());
                let len = 1 + rng.below(base.len() - start);
                base[start..start + len].to_vec()
            }
            // An earlier signature, extended.
            (2, false) => {
                let mut s = sigs[rng.below(sigs.len())].clone();
                s.push(SIG_ALPHABET[rng.below(SIG_ALPHABET.len())]);
                s
            }
            // Binary bytes.
            (3, false) => (0..1 + rng.below(4))
                .map(|_| SIG_ALPHABET[8 + rng.below(5)])
                .collect(),
            // Longer, over the whole alphabet.
            _ => (0..4 + rng.below(8))
                .map(|_| SIG_ALPHABET[rng.below(SIG_ALPHABET.len())])
                .collect(),
        };
        sigs.push(sig);
    }
    if n >= 2 {
        // One signature carried by two rules.
        sigs[n - 1] = sigs[n / 2].clone();
    }
    sigs
}

fn rules(sigs: &[Vec<u8>], rng: &mut Rng) -> Vec<Rule> {
    sigs.iter()
        .enumerate()
        .map(|(i, sig)| {
            let name = format!("rule-{i}");
            if rng.below(3) == 0 {
                Rule::block(&name, sig)
            } else {
                Rule::allow(&name, sig)
            }
        })
        .collect()
}

fn filler(len: usize, rng: &mut Rng) -> Vec<u8> {
    (0..len).map(|_| FILLER[rng.below(FILLER.len())]).collect()
}

fn payloads(sigs: &[Vec<u8>], rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new(), filler(4096, rng)];
    for _ in 0..40 {
        let sig = &sigs[rng.below(sigs.len())];
        let other = &sigs[rng.below(sigs.len())];
        // At the start.
        let mut p = sig.clone();
        p.extend(filler(rng.below(64), rng));
        out.push(p);
        // At the end, after a long skipped run.
        let mut p = filler(500 + rng.below(1500), rng);
        p.extend_from_slice(sig);
        out.push(p);
        // A false start (a proper prefix that leaves the root) right
        // before the real thing, between skipped runs.
        let mut p = filler(rng.below(200), rng);
        p.extend_from_slice(&other[..other.len() - 1]);
        p.extend_from_slice(sig);
        p.extend(filler(rng.below(200), rng));
        out.push(p);
        // Dense: signature bytes only, so the scan rarely rests at the
        // root and matches overlap.
        out.push(
            (0..64 + rng.below(256))
                .map(|_| SIG_ALPHABET[rng.below(SIG_ALPHABET.len())])
                .collect(),
        );
    }
    out
}

/// The oracle: each rule scanned alone, in rule order. Returns the
/// verdict and the indices of the rules that matched.
fn oracle(rules: &[Rule], payload: &[u8]) -> (bool, Vec<usize>) {
    let hits: Vec<usize> = (0..rules.len())
        .filter(|&i| Kmp::new(&rules[i].signature).find_first(payload).is_some())
        .collect();
    let allowed = hits.iter().all(|&i| rules[i].action == Action::Allow);
    (allowed, hits)
}

#[test]
fn scan_equals_per_rule_kmp_oracle() {
    for (n, seed) in [(1, 11), (4, 12), (32, 13), (100, 14), (100, 15)] {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ seed);
        let sigs = signatures(n, &mut rng);
        let rules = rules(&sigs, &mut rng);
        let fw = Firewall::new(rules.clone(), Duration::from_nanos(1));
        let ac = MultiPattern::new(&sigs);
        let mut matched_past_64 = 0;
        for (i, payload) in payloads(&sigs, &mut rng).iter().enumerate() {
            let out = fw.scan(payload);
            let (allowed, hits) = oracle(&rules, payload);
            let names: Vec<String> = hits.iter().map(|&r| rules[r].name.clone()).collect();
            assert_eq!(
                (out.allowed, &out.matched),
                (allowed, &names),
                "{n} rules, payload {i}: {payload:?}"
            );
            matched_past_64 += hits.iter().filter(|&&r| r >= 64).count();
            // Every occurrence, not only the verdict.
            let found = ac.find_all(payload);
            for (pi, sig) in sigs.iter().enumerate() {
                let mut starts: Vec<usize> = found
                    .iter()
                    .filter(|m| m.pattern == pi)
                    .map(|m| m.start)
                    .collect();
                starts.sort_unstable();
                assert_eq!(
                    starts,
                    Kmp::new(sig).find_all(payload),
                    "{n} rules, payload {i}, pattern {pi}"
                );
            }
        }
        if n > 64 {
            assert!(
                matched_past_64 > 0,
                "no payload exercised a pattern past 64"
            );
        }
    }
}

#[test]
fn clean_traffic_over_many_rules_matches_nothing() {
    let mut rng = Rng(77);
    let sigs = signatures(100, &mut rng);
    let fw = Firewall::new(rules(&sigs, &mut rng), Duration::from_nanos(1));
    let out = fw.scan(&filler(64 * 1024, &mut rng));
    assert!(out.allowed);
    assert!(out.matched.is_empty());
}
