//! The proxy–origin protocol: every `X-DPC-*` header a DPC node, its
//! origin and its clients exchange, and one `format` / `parse` pair for
//! each value the node and the origin agree on. The template grammar
//! inside a response body is [`crate::tag`]'s.
//!
//! A header is *internal* or *public*. Internal headers pass between a
//! node and its origin only: a node removes every [`INTERNAL_REQUEST`]
//! header from a client's request before it adds its own [`Ask`], and
//! every [`INTERNAL_RESPONSE`] header from the origin's response before a
//! page reaches a client. Public headers are the client's and the
//! operator's: tracing ([`TRACE_HEADER`], [`JOURNEY_HEADER`]), the admin
//! purge ([`DEP_HEADER`], [`PURGED_KEYS_HEADER`]) and the annotations a
//! node puts on what it serves ([`SERVED_BY_HEADER`],
//! [`ASSEMBLY_ERROR_HEADER`]).
//!
//! A node fills its slots in three rungs, each one origin request:
//!
//! 1. The template request names the node ([`Ask::node`]). The BEM emits a
//!    `GET` for a fragment whose stored bit the node holds and a `SET` for
//!    one it does not (a node miss), so a node new to a page fills its
//!    slots from this one response.
//! 2. If a `GET` still finds its slot without the generation it names, a
//!    *refresh* names those keys ([`Ask::missing`]). The BEM forgets that the node
//!    stores them and re-`SET`s them.
//! 3. If that fails too, a bypass ([`Ask::bypass`]) fetches the page fully
//!    expanded.
//!
//! A node that caches assembled pages asks for each page's read set
//! ([`Ask::want_reads`]); the template response answers with its
//! [`Provenance`]: the epoch stripes of every row and dependency the
//! render read, so an update unserves only the pages that read it, and
//! whether the render never observed the session, so the node caches one
//! copy of the page for every session.

use std::fmt::Display;
use std::sync::Arc;

use crate::epoch::{ReadSet, MAX_READ_STRIPES, STRIPES};
use crate::key::DpcKey;

/// Request header forcing a fully expanded response: no instructions, no
/// directory change (internal).
pub const BYPASS_HEADER: &str = "X-DPC-Bypass";
/// Request header a node announces its id (0–63) in, so the BEM tracks
/// per-node fragment placement (§7) (internal).
pub const NODE_HEADER: &str = "X-DPC-Node";
/// Refresh request header listing the keys whose `GET`s found the node's
/// slots without the generation they named. The BEM clears the node's stored bit on each before
/// rendering, so the refresh re-`SET`s them (internal).
pub const MISSING_HEADER: &str = "X-DPC-Missing";
/// Request header a node with a page tier sends on a template request to
/// ask for the page's [`Provenance`] (internal).
pub const WANT_READS_HEADER: &str = "X-DPC-Want-Reads";
/// Every internal request header. A node drops a client's copies of all of
/// them: only the node speaks for its slots and its tier.
pub const INTERNAL_REQUEST: [&str; 4] = [
    BYPASS_HEADER,
    NODE_HEADER,
    MISSING_HEADER,
    WANT_READS_HEADER,
];

/// Response header the origin sets on an instrumented template (internal).
/// No node reads it: a node tells a template by its preamble
/// ([`crate::tag::is_instrumented`]). It stays on the wire because the
/// paper-scale tables and byte counts are measured with its 23 bytes per
/// template; deleting it moves them.
pub const INSTRUMENTED_HEADER: &str = "X-DPC-Instrumented";
/// Template response header answering [`WANT_READS_HEADER`] with the
/// page's [`Provenance`] (internal).
pub const READS_HEADER: &str = "X-DPC-Reads";
/// Every internal response header. A node strips all of them before a
/// response reaches a client.
pub const INTERNAL_RESPONSE: [&str; 2] = [INSTRUMENTED_HEADER, READS_HEADER];

/// Request and response header carrying the trace context across HTTP
/// legs (public; `dpc-trace` owns its format).
pub use dpc_trace::TRACE_HEADER;
/// Request header asking for the response's cache journey, and the
/// response header carrying it (public).
pub const JOURNEY_HEADER: &str = "X-DPC-Trace";
/// `PURGE` request header naming the dependency whose keys to free
/// (public).
pub const DEP_HEADER: &str = "X-DPC-Dep";
/// Response header of a dependency purge: the number of keys it freed
/// (public).
pub const PURGED_KEYS_HEADER: &str = "X-DPC-Purged-Keys";
/// Response header of a ring front: the node that served the request
/// (public).
pub const SERVED_BY_HEADER: &str = "X-DPC-Served-By";
/// Response header of a bypass refetch: why assembly failed (public).
pub const ASSEMBLY_ERROR_HEADER: &str = "X-DPC-Assembly-Error";

/// Name of the session cookie carrying the user id.
pub const SESSION_COOKIE: &str = "session";
/// Most keys the BEM reads from one [`MISSING_HEADER`]; the rest are
/// ignored, so a page with more absent slots than this falls through to a
/// bypass.
pub const MAX_MISSING_KEYS: usize = 64;
/// Node ids the BEM tracks: a node id at or above this reads as absent.
const MAX_NODES: u32 = 64;
/// Suffix of a [`READS_HEADER`] value asserting that the render never
/// observed the session (`3,17;session-free`).
pub const SESSION_FREE_MARK: &str = ";session-free";

/// Extract the session user from a Cookie header value
/// (`a=1; session=user3; b=2` → `user3`). An empty value is no session.
/// The one reading of the session cookie: a node keying pages by session
/// must name the same user the render saw.
pub fn parse_session_cookie(cookie: &str) -> Option<&str> {
    cookie
        .split(';')
        .find_map(|part| {
            let (k, v) = part.split_once('=')?;
            (k.trim() == SESSION_COOKIE).then_some(v.trim())
        })
        .filter(|user| !user.is_empty())
}

/// What a node asks the origin for one page: its internal request headers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ask {
    /// The node's id; `None` reads as node 0.
    pub node: Option<u32>,
    /// The keys of a refresh: `GET`s that found the node's slots without
    /// the generation they named.
    pub missing: Vec<DpcKey>,
    /// The node caches the page and asks for its [`Provenance`].
    pub want_reads: bool,
    /// The node wants the page fully expanded.
    pub bypass: bool,
}

impl Ask {
    /// The headers spelling this ask, as (name, value) pairs.
    pub fn format(&self) -> Vec<(&'static str, String)> {
        let flag = |on: bool, name| on.then(|| (name, "1".to_owned()));
        [
            self.node.map(|node| (NODE_HEADER, node.to_string())),
            (!self.missing.is_empty()).then(|| (MISSING_HEADER, join(&self.missing))),
            flag(self.want_reads, WANT_READS_HEADER),
            flag(self.bypass, BYPASS_HEADER),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Read an ask from a request; `header` looks a header up by name. A
    /// node id at or above 64 reads as absent, key entries that are not a
    /// decimal `u32` are skipped, and only the first [`MAX_MISSING_KEYS`]
    /// keys are read.
    pub fn parse<'a>(header: impl Fn(&'static str) -> Option<&'a str>) -> Ask {
        Ask {
            node: header(NODE_HEADER)
                .and_then(|v| v.parse().ok())
                .filter(|n| *n < MAX_NODES),
            missing: header(MISSING_HEADER)
                .map(|v| parse_keys(v).take(MAX_MISSING_KEYS).collect())
                .unwrap_or_default(),
            want_reads: header(WANT_READS_HEADER).is_some(),
            bypass: header(BYPASS_HEADER).is_some(),
        }
    }

    /// Whether the origin answers with a [`Provenance`]: only when asked,
    /// and never for a bypass, which is never cached.
    pub fn answers_reads(&self) -> bool {
        self.want_reads && !self.bypass
    }
}

/// What the origin answers beside a template: its internal response
/// headers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    /// The body is an instrumented template ([`INSTRUMENTED_HEADER`]).
    pub instrumented: bool,
    /// The page's provenance, when the ask [answers
    /// reads](Ask::answers_reads).
    pub provenance: Option<Provenance>,
}

impl Answer {
    /// The headers spelling this answer, as (name, value) pairs.
    pub fn format(&self) -> Vec<(&'static str, String)> {
        [
            self.instrumented
                .then(|| (INSTRUMENTED_HEADER, "1".to_owned())),
            self.provenance.as_ref().map(|p| (READS_HEADER, p.format())),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Read the answer to `ask` from a response; `header` looks a header up
    /// by name. A provenance the ask did not call for is ignored: an
    /// origin that was not asked has no say over the node's tier.
    pub fn parse<'a>(ask: &Ask, header: impl Fn(&'static str) -> Option<&'a str>) -> Answer {
        Answer {
            instrumented: header(INSTRUMENTED_HEADER).is_some(),
            provenance: header(READS_HEADER)
                .filter(|_| ask.answers_reads())
                .map(Provenance::parse),
        }
    }
}

/// What an assembled page's bytes depend on: its *determination
/// provenance*.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// The read set as epoch stripes; `None` when unknown, which stamps the
    /// page under the coarse rule.
    pub reads: Option<Arc<[u16]>>,
    /// The render never observed the session.
    pub session_free: bool,
}

impl Provenance {
    /// The provenance of a render that read `reads` and observed the
    /// session or not: its stripes ascending without repeats, unknown past
    /// [`MAX_READ_STRIPES`], and session-free only after a known read set.
    pub fn recorded(reads: &ReadSet, session_observed: bool) -> Provenance {
        let reads = reads.stripes().and_then(|stripes| {
            let mut sorted = stripes.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            (sorted.len() <= MAX_READ_STRIPES).then(|| sorted.into())
        });
        Provenance {
            session_free: !session_observed && reads.is_some(),
            reads,
        }
    }

    /// Whether one copy of the page serves every session: the origin
    /// asserted that the render never observed the session, after a read
    /// set this node can judge. Anything else keeps the page per session.
    pub fn shared(&self) -> bool {
        self.session_free && self.reads.is_some()
    }

    /// The [`READS_HEADER`] value: the stripes in decimal, comma-separated,
    /// or `*` when unknown; then [`SESSION_FREE_MARK`] when session-free.
    pub fn format(&self) -> String {
        let mut out = match &self.reads {
            Some(reads) => join(reads),
            None => "*".to_owned(),
        };
        if self.session_free {
            out.push_str(SESSION_FREE_MARK);
        }
        out
    }

    /// Parse a [`READS_HEADER`] value from an untrusted origin. The read
    /// set is unknown for `*`, for any entry that is not a stripe index,
    /// and for more than [`MAX_READ_STRIPES`] entries; the empty value is
    /// the empty read set. Only the exact mark, once, at the end, is
    /// session-free.
    pub fn parse(value: &str) -> Provenance {
        let value = value.trim();
        let (reads, session_free) = match value.strip_suffix(SESSION_FREE_MARK) {
            Some(reads) => (reads, true),
            None => (value, false),
        };
        Provenance {
            reads: parse_stripes(reads),
            session_free,
        }
    }
}

fn parse_stripes(value: &str) -> Option<Arc<[u16]>> {
    let value = value.trim();
    if value.is_empty() {
        return Some(Arc::from([]));
    }
    let mut stripes = Vec::new();
    for entry in value.split(',') {
        if stripes.len() == MAX_READ_STRIPES {
            return None;
        }
        let stripe: u16 = entry.trim().parse().ok()?;
        if usize::from(stripe) >= STRIPES {
            return None;
        }
        stripes.push(stripe);
    }
    Some(stripes.into())
}

/// A list value: decimal entries joined by commas (`3,17,42`).
fn join(items: &[impl Display]) -> String {
    let mut out = String::with_capacity(items.len() * 5);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item.to_string());
    }
    out
}

/// Parse a key list lazily, skipping entries that are not a decimal `u32`.
fn parse_keys(value: &str) -> impl Iterator<Item = DpcKey> + '_ {
    value
        .split(',')
        .filter_map(|k| k.trim().parse().ok().map(DpcKey))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A header lookup over formatted (name, value) pairs.
    fn lookup<'a>(pairs: &'a [(&'static str, String)]) -> impl Fn(&'static str) -> Option<&'a str> {
        move |name| {
            pairs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.as_str())
        }
    }

    fn provenance(reads: Option<&[u16]>, session_free: bool) -> Provenance {
        Provenance {
            reads: reads.map(Arc::from),
            session_free,
        }
    }

    fn provenances() -> Vec<Provenance> {
        let at_cap: Vec<u16> = (0..MAX_READ_STRIPES as u16).collect();
        let reads: [Option<&[u16]>; 4] = [None, Some(&[]), Some(&[3, 17, 4095]), Some(&at_cap)];
        reads
            .iter()
            .flat_map(|r| [false, true].map(|free| provenance(*r, free)))
            .collect()
    }

    fn asks() -> Vec<Ask> {
        let mut asks = Vec::new();
        let full: Vec<DpcKey> = (0..MAX_MISSING_KEYS as u32).map(DpcKey).collect();
        for node in [None, Some(0), Some(63)] {
            for missing in [
                vec![],
                vec![DpcKey(0), DpcKey(17), DpcKey(u32::MAX)],
                full.clone(),
            ] {
                for bits in 0..4 {
                    asks.push(Ask {
                        node,
                        missing: missing.clone(),
                        want_reads: bits & 1 == 1,
                        bypass: bits & 2 == 2,
                    });
                }
            }
        }
        asks
    }

    #[test]
    fn every_value_round_trips() {
        for p in provenances() {
            assert_eq!(Provenance::parse(&p.format()), p, "{:?}", p.format());
        }
        for ask in asks() {
            assert_eq!(Ask::parse(lookup(&ask.format())), ask);
        }
        let asked = Ask {
            want_reads: true,
            ..Ask::default()
        };
        let provenances = provenances().into_iter().map(Some).chain([None]);
        for (i, provenance) in provenances.enumerate() {
            let answer = Answer {
                instrumented: i % 2 == 0,
                provenance,
            };
            assert_eq!(Answer::parse(&asked, lookup(&answer.format())), answer);
        }
    }

    #[test]
    fn the_wire_spellings_stay_put() {
        assert_eq!(
            provenance(Some(&[17, 3]), true).format(),
            "17,3;session-free"
        );
        assert_eq!(provenance(Some(&[]), false).format(), "");
        assert_eq!(provenance(None, false).format(), "*");
        // A recorded read set is sorted and deduplicated; an unknown or
        // oversized one is `*` and never session-free.
        let mut set = ReadSet::default();
        for label in ["b", "a", "b"] {
            set.note(label);
        }
        let mut stripes = [crate::stripe_of("a"), crate::stripe_of("b")];
        stripes.sort_unstable();
        let listed = format!("{},{}", stripes[0], stripes[1]);
        let free = Provenance::recorded(&set, false);
        assert_eq!(free.reads.as_deref(), Some(&stripes[..]));
        assert_eq!(free.format(), format!("{listed}{SESSION_FREE_MARK}"));
        assert_eq!(Provenance::recorded(&set, true).format(), listed);
        for label in 0..MAX_READ_STRIPES * 4 {
            set.note(&label.to_string());
        }
        assert_eq!(Provenance::recorded(&set, false).format(), "*");
        set.mark_unknown();
        assert_eq!(Provenance::recorded(&set, false).format(), "*");
        let ask = Ask {
            node: Some(2),
            missing: vec![DpcKey(0), DpcKey(17), DpcKey(u32::MAX)],
            want_reads: true,
            bypass: true,
        };
        let spelled = [
            (NODE_HEADER, "2"),
            (MISSING_HEADER, "0,17,4294967295"),
            (WANT_READS_HEADER, "1"),
            (BYPASS_HEADER, "1"),
        ]
        .map(|(n, v)| (n, v.to_owned()));
        assert_eq!(ask.format(), spelled);
        let answer = Answer {
            instrumented: true,
            provenance: Some(provenance(Some(&[3, 17]), true)),
        };
        let spelled = [
            (INSTRUMENTED_HEADER, "1"),
            (READS_HEADER, "3,17;session-free"),
        ]
        .map(|(n, v)| (n, v.to_owned()));
        assert_eq!(answer.format(), spelled);
        assert!(Ask::default().format().is_empty());
        assert!(Answer::default().format().is_empty());
    }

    #[test]
    fn what_a_node_cannot_judge_fails_safe() {
        let asked = Ask {
            want_reads: true,
            ..Ask::default()
        };
        let bypass = Ask {
            bypass: true,
            ..asked.clone()
        };
        let unasked = Ask::default();
        let listed = |n: usize| (0..n).map(|s| s.to_string()).collect::<Vec<_>>().join(",");
        let (over_cap, at_cap) = (listed(MAX_READ_STRIPES + 1), listed(MAX_READ_STRIPES));
        let at_cap_reads: Vec<u16> = (0..MAX_READ_STRIPES as u16).collect();
        let mark = "3,17;session-free";
        // (the ask, the Reads value, the read set judged, shared, what).
        type Case<'a> = (&'a Ask, Option<&'a str>, Option<&'a [u16]>, bool, &'a str);
        let cases: Vec<Case> = vec![
            (
                &asked,
                Some(mark),
                Some(&[3, 17]),
                true,
                "the origin's mark",
            ),
            (
                &asked,
                Some(";session-free"),
                Some(&[]),
                true,
                "the mark alone",
            ),
            (
                &asked,
                Some(" 3, 17;session-free "),
                Some(&[3, 17]),
                true,
                "spaces",
            ),
            (&asked, None, None, false, "no header"),
            (&asked, Some("3,17"), Some(&[3, 17]), false, "no mark"),
            (&asked, Some(""), Some(&[]), false, "the empty set, no mark"),
            (&asked, Some("*"), None, false, "unknown reads"),
            (&asked, Some("*;session-free"), None, false, "mark after *"),
            (
                &asked,
                Some("3,17;session-fre"),
                None,
                false,
                "garbled mark",
            ),
            (&asked, Some("3,17;session"), None, false, "cut mark"),
            (
                &asked,
                Some("3,17;session-free;session-free"),
                None,
                false,
                "mark twice",
            ),
            (
                &asked,
                Some("3,17;session-free;x"),
                None,
                false,
                "more after the mark",
            ),
            (&bypass, Some(mark), None, false, "a bypass"),
            (&unasked, Some(mark), None, false, "a node that did not ask"),
            (&asked, Some("1,x"), None, false, "a junk entry"),
            (&asked, Some("12,banana"), None, false, "a word"),
            (&asked, Some("4096"), None, false, "past the last stripe"),
            (&asked, Some("-1"), None, false, "negative"),
            (&asked, Some("1,,2"), None, false, "an empty entry"),
            (&asked, Some("70000"), None, false, "past u16"),
            (&asked, Some(&over_cap), None, false, "over the cap"),
            (
                &asked,
                Some(&at_cap),
                Some(&at_cap_reads),
                false,
                "at the cap",
            ),
        ];
        for (ask, value, reads, shared, what) in cases {
            let answer = Answer::parse(ask, |name| value.filter(|_| name == READS_HEADER));
            let p = answer.provenance.unwrap_or_default();
            assert_eq!(p.reads.as_deref(), reads, "{what}");
            assert_eq!(p.shared(), shared, "{what}");
        }
    }

    /// The ask of a request holding one header.
    fn ask(name: &str, value: &str) -> Ask {
        Ask::parse(|n| (n == name).then_some(value))
    }

    #[test]
    fn hostile_ask_values_read_as_absent() {
        assert_eq!(ask(NODE_HEADER, "63").node, Some(63));
        for hostile in ["64", "x", "-1", " 3", ""] {
            assert_eq!(ask(NODE_HEADER, hostile).node, None, "{hostile:?}");
        }
        // Junk keys are skipped, not fatal, and a long list is cut.
        let keys = ask(MISSING_HEADER, "5, x,-1,4294967296,6").missing;
        assert_eq!(keys, vec![DpcKey(5), DpcKey(6)]);
        assert!(ask(MISSING_HEADER, "").missing.is_empty());
        let long: Vec<String> = (0..=MAX_MISSING_KEYS).map(|k| k.to_string()).collect();
        let long = ask(MISSING_HEADER, &long.join(","));
        assert_eq!(long.missing.len(), MAX_MISSING_KEYS);
        // Flags are read by presence.
        assert!(ask(BYPASS_HEADER, "").bypass);
        assert!(ask(WANT_READS_HEADER, "0").want_reads);
        assert!(!ask(BYPASS_HEADER, "1").answers_reads());
    }

    #[test]
    fn the_internal_lists_hold_every_internal_name_once() {
        let all = [&INTERNAL_REQUEST[..], &INTERNAL_RESPONSE[..]].concat();
        for (i, name) in all.iter().enumerate() {
            assert!(name.starts_with("X-DPC-"), "{name}");
            assert!(!all[..i].contains(name), "{name} twice");
        }
        let public = [
            TRACE_HEADER,
            JOURNEY_HEADER,
            DEP_HEADER,
            PURGED_KEYS_HEADER,
            SERVED_BY_HEADER,
            ASSEMBLY_ERROR_HEADER,
        ];
        assert!(public.iter().all(|name| !all.contains(name)));
    }
}
