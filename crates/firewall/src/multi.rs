//! Aho–Corasick multi-pattern matching over one flat transition table.
//!
//! A firewall rule set holds many signatures; scanning each packet once per
//! rule would be `O(rules × bytes)`. Aho–Corasick generalizes the KMP
//! failure function to a trie of all patterns, restoring the single
//! linear pass the paper's cost model assumes regardless of rule count.
//!
//! The trie is built and its failure links wired breadth-first as usual;
//! the resulting DFA is then one `Vec<u32>` indexed `state * 256 + byte`,
//! so a step is one load. An entry's top bit marks a target state that
//! accepts, and each state's accept set is a bitset of ⌈patterns/64⌉
//! words, so any number of patterns fits. The scan skips, without touching
//! the state, every byte that leaves the root at the root — on clean
//! traffic that is nearly all of them.

use std::collections::VecDeque;

/// A match: which pattern, ending where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternMatch {
    /// Index of the pattern in construction order.
    pub pattern: usize,
    /// Byte offset of the first byte of the match in the scanned text.
    pub start: usize,
}

/// Set on a transition whose target state accepts some pattern.
const ACCEPTS: u32 = 1 << 31;
/// Marks a trie edge not yet created (construction only).
const NO_EDGE: u32 = u32::MAX;

/// Compiled multi-pattern automaton.
pub struct MultiPattern {
    /// `table[state * 256 + byte]` = next state, `| ACCEPTS` when that
    /// state accepts. State 0 is the root.
    table: Vec<u32>,
    /// Accept set of state `s`: `accepts[s * words..(s + 1) * words]`,
    /// bit `p` set when pattern `p` ends there (suffixes included).
    accepts: Vec<u64>,
    /// Words per accept set: ⌈patterns / 64⌉.
    words: usize,
    pattern_lens: Vec<usize>,
}

impl MultiPattern {
    /// Compile a set of non-empty patterns.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> MultiPattern {
        let words = patterns.len().div_ceil(64);
        let mut table = vec![NO_EDGE; 256];
        let mut accepts = vec![0u64; words];
        let mut pattern_lens = Vec::with_capacity(patterns.len());
        // Trie construction.
        for (pi, pattern) in patterns.iter().enumerate() {
            let pattern = pattern.as_ref();
            assert!(!pattern.is_empty(), "patterns must be non-empty");
            pattern_lens.push(pattern.len());
            let mut cur = 0usize;
            for &b in pattern {
                let edge = cur * 256 + b as usize;
                if table[edge] == NO_EDGE {
                    let id = table.len() / 256;
                    assert!(id < ACCEPTS as usize, "automaton too large");
                    table[edge] = id as u32;
                    table.resize(table.len() + 256, NO_EDGE);
                    accepts.resize(accepts.len() + words, 0);
                }
                cur = table[edge] as usize;
            }
            accepts[cur * words + pi / 64] |= 1 << (pi % 64);
        }
        // BFS to wire failure links and totalize the goto function into a
        // DFA: a missing edge takes the failure target's edge.
        let states = table.len() / 256;
        let mut fail = vec![0usize; states];
        let mut queue = VecDeque::new();
        for entry in &mut table[..256] {
            match *entry {
                NO_EDGE => *entry = 0,
                child => queue.push_back(child as usize),
            }
        }
        while let Some(id) = queue.pop_front() {
            // Inherit the failure target's accept set (suffix matches).
            let f = fail[id];
            for w in 0..words {
                accepts[id * words + w] |= accepts[f * words + w];
            }
            for b in 0..256 {
                let via_fail = table[f * 256 + b];
                match table[id * 256 + b] {
                    NO_EDGE => table[id * 256 + b] = via_fail,
                    child => {
                        fail[child as usize] = via_fail as usize;
                        queue.push_back(child as usize);
                    }
                }
            }
        }
        // Flag every transition into an accepting state.
        let accepting = |s: usize| accepts[s * words..(s + 1) * words].iter().any(|&w| w != 0);
        for entry in &mut table {
            if accepting(*entry as usize) {
                *entry |= ACCEPTS;
            }
        }
        MultiPattern {
            table,
            accepts,
            words,
            pattern_lens,
        }
    }

    /// Number of compiled patterns.
    pub fn pattern_count(&self) -> usize {
        self.pattern_lens.len()
    }

    /// Run the automaton over `text`, calling `on_accept(end, set)` at
    /// every byte offset `end` where the accept set `set` is non-empty;
    /// the scan stops when it returns false.
    fn walk(&self, text: &[u8], mut on_accept: impl FnMut(usize, &[u64]) -> bool) {
        let root = &self.table[..256];
        let mut state = 0usize;
        let mut i = 0;
        while i < text.len() {
            if state == 0 {
                // Root skip: a byte whose root transition is the root
                // neither starts nor ends a match.
                match text[i..].iter().position(|&b| root[b as usize] != 0) {
                    Some(skip) => i += skip,
                    None => return,
                }
            }
            let entry = self.table[state * 256 + text[i] as usize];
            state = (entry & !ACCEPTS) as usize;
            if entry & ACCEPTS != 0 {
                let set = &self.accepts[state * self.words..(state + 1) * self.words];
                if !on_accept(i, set) {
                    return;
                }
            }
            i += 1;
        }
    }

    /// All matches (all patterns, all offsets, overlapping included).
    pub fn find_all(&self, text: &[u8]) -> Vec<PatternMatch> {
        let mut out = Vec::new();
        self.walk(text, |end, set| {
            out.extend(bits(set).map(|pattern| PatternMatch {
                pattern,
                start: end + 1 - self.pattern_lens[pattern],
            }));
            true
        });
        out
    }

    /// True when any pattern occurs in `text`; stops at the first match.
    pub fn any_match(&self, text: &[u8]) -> bool {
        let mut found = false;
        self.walk(text, |_, _| {
            found = true;
            false
        });
        found
    }

    /// Distinct patterns that occur in `text`, in pattern order. Allocates
    /// nothing when none does.
    pub fn matching_patterns(&self, text: &[u8]) -> Vec<usize> {
        let mut hits: Vec<u64> = Vec::new();
        self.walk(text, |_, set| {
            if hits.is_empty() {
                hits.resize(self.words, 0);
            }
            for (hit, word) in hits.iter_mut().zip(set) {
                *hit |= word;
            }
            true
        });
        bits(&hits).collect()
    }
}

/// Indices of the set bits of a bitset, ascending.
fn bits(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmp::Kmp;

    #[test]
    fn finds_multiple_patterns() {
        let ac = MultiPattern::new(&[b"he".as_slice(), b"she", b"his", b"hers"]);
        let matches = ac.find_all(b"ushers");
        // "ushers" contains "she"@1, "he"@2, "hers"@2.
        let mut pairs: Vec<(usize, usize)> = matches.iter().map(|m| (m.pattern, m.start)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 2), (1, 1), (3, 2)]);
    }

    #[test]
    fn any_match_short_circuits() {
        let ac = MultiPattern::new(&[b"attack".as_slice(), b"exploit"]);
        assert!(ac.any_match(b"an exploit attempt"));
        assert!(!ac.any_match(b"benign traffic"));
    }

    #[test]
    fn matching_patterns_dedupes() {
        let ac = MultiPattern::new(&[b"ab".as_slice(), b"bc"]);
        assert_eq!(ac.matching_patterns(b"ababab"), vec![0]);
        assert_eq!(ac.matching_patterns(b"abc"), vec![0, 1]);
    }

    #[test]
    fn agrees_with_kmp_per_pattern() {
        let patterns: Vec<&[u8]> = vec![b"aba", b"bab", b"aa", b"abba"];
        let ac = MultiPattern::new(&patterns);
        let mut state = 99u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..100 {
            let text: Vec<u8> = (0..120).map(|_| (next() % 2) as u8 + b'a').collect();
            let got = ac.find_all(&text);
            for (pi, p) in patterns.iter().enumerate() {
                let kmp_offsets = Kmp::new(p).find_all(&text);
                let ac_offsets: Vec<usize> = got
                    .iter()
                    .filter(|m| m.pattern == pi)
                    .map(|m| m.start)
                    .collect();
                let mut sorted = ac_offsets.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, kmp_offsets, "pattern {pi}");
            }
        }
    }

    #[test]
    fn substring_patterns_both_reported() {
        let ac = MultiPattern::new(&[b"abcd".as_slice(), b"bc"]);
        let pairs: Vec<(usize, usize)> = ac
            .find_all(b"xabcdx")
            .iter()
            .map(|m| (m.pattern, m.start))
            .collect();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 2)));
    }

    #[test]
    fn binary_patterns_work() {
        let ac = MultiPattern::new(&[[0x00u8, 0x01].as_slice(), &[0xFF]]);
        let m = ac.find_all(&[0xFF, 0x00, 0x01]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn accept_sets_span_many_words() {
        // 130 patterns: three accept-set words, matches in each.
        let patterns: Vec<Vec<u8>> = (0..130).map(|i| format!("<{i}>").into_bytes()).collect();
        let ac = MultiPattern::new(&patterns);
        assert_eq!(
            ac.matching_patterns(b"..<3>..<70>..<129>.."),
            vec![3, 70, 129]
        );
        assert!(ac.matching_patterns(b"<130> <1 2>").is_empty());
    }

    #[test]
    fn no_patterns_match_nothing() {
        let ac = MultiPattern::new::<&[u8]>(&[]);
        assert!(!ac.any_match(b"anything"));
        assert!(ac.find_all(b"anything").is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_panics() {
        let _ = MultiPattern::new(&[b"".as_slice()]);
    }
}
