//! HTTP message types: methods, status codes, headers, requests, responses.
//!
//! A message head is one buffer in wire form: [`Headers`] holds every
//! header as `name: value\r\n` in a single block plus a table of entry
//! lengths, so the parser fills it with one copy, the serializer emits it
//! with one copy, and building or parsing a head costs two allocations
//! whatever its header count. Bodies are [`Body`] ropes of shared buffers.

use bytes::Bytes;
use std::fmt;

/// Request methods used by the testbed.
///
/// `PURGE` is the conventional cache-management verb (page-level caches are
/// told to drop entries with it); everything else is standard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Post,
    Head,
    Purge,
}

impl Method {
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Purge => "PURGE",
        }
    }

    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "HEAD" => Some(Method::Head),
            "PURGE" => Some(Method::Purge),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Response status line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    pub const OK: Status = Status(200);
    pub const NOT_MODIFIED: Status = Status(304);
    pub const BAD_REQUEST: Status = Status(400);
    pub const NOT_FOUND: Status = Status(404);
    pub const INTERNAL_ERROR: Status = Status(500);
    pub const BAD_GATEWAY: Status = Status(502);

    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            _ => "Unknown",
        }
    }

    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An ordered multimap of header name/value pairs, held as one buffer in
/// wire form plus a table of entry lengths.
///
/// The block is `name: value\r\n` per entry, in insertion order: exactly
/// the bytes the serializer copies after the start line. Each entry
/// records its name and value lengths, so an entry's spans follow from the
/// lengths before it. A parsed head fills the block with one copy and a
/// built one appends to it, so a message's headers cost two buffers
/// however many there are, not two strings per header.
///
/// Lookups are ASCII case-insensitive per RFC 7230; insertion order is
/// preserved so serialized messages are byte-stable (important for the
/// byte-accounting benches). Equality compares the ordered (name, value)
/// pairs: the lengths and the block determine the pairs and the pairs
/// determine both, so comparing the two compares the pairs.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Headers {
    block: String,
    entries: Vec<Entry>,
}

/// One header's name and value lengths; its line in the block is the
/// name, `": "`, the value and `"\r\n"`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    name: u32,
    value: u32,
}

impl Entry {
    fn line_len(self) -> usize {
        self.name as usize + self.value as usize + 4
    }
}

/// Block bytes and entries reserved by a built message's first header,
/// enough for every head the testbed builds without a regrowth.
const BLOCK_HINT: usize = 256;
const ENTRIES_HINT: usize = 8;

impl Headers {
    pub fn new() -> Self {
        Headers::default()
    }

    /// Empty headers with room for `bytes` of block and `entries` headers.
    pub(crate) fn with_capacity(bytes: usize, entries: usize) -> Headers {
        Headers {
            block: String::with_capacity(bytes),
            entries: Vec::with_capacity(entries),
        }
    }

    /// Append a header (does not replace existing values of the same name).
    pub fn add(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        let (name, value) = (name.as_ref(), value.as_ref());
        let entry = Entry {
            name: u32::try_from(name.len()).expect("header name over 4 GiB"),
            value: u32::try_from(value.len()).expect("header value over 4 GiB"),
        };
        if self.block.capacity() == 0 {
            self.block.reserve(entry.line_len().max(BLOCK_HINT));
            self.entries.reserve(ENTRIES_HINT);
        }
        self.block.push_str(name);
        self.block.push_str(": ");
        self.block.push_str(value);
        self.block.push_str("\r\n");
        self.entries.push(entry);
    }

    /// Replace all values of `name` with a single `value`.
    pub fn set(&mut self, name: &str, value: impl AsRef<str>) {
        self.remove(name);
        self.add(name, value);
    }

    /// First value of `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Remove all values of `name`. Returns true when something was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        let (mut at, mut i) = (0, 0);
        while let Some(&entry) = self.entries.get(i) {
            let len = entry.line_len();
            if self.block[at..at + entry.name as usize].eq_ignore_ascii_case(name) {
                self.block.replace_range(at..at + len, "");
                self.entries.remove(i);
            } else {
                at += len;
                i += 1;
            }
        }
        self.entries.len() != before
    }

    /// Each entry with the offset of its line in the block.
    fn lines(&self) -> impl Iterator<Item = (usize, Entry)> + '_ {
        let mut at = 0;
        self.entries.iter().map(move |&entry| {
            let start = at;
            at += entry.line_len();
            (start, entry)
        })
    }

    /// Iterate over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.lines().map(|(start, entry)| {
            let value = start + entry.name as usize + 2;
            (
                &self.block[start..start + entry.name as usize],
                &self.block[value..value + entry.value as usize],
            )
        })
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total serialized size of the header block in bytes, including the
    /// `": "` separators and CRLFs — this is the `f` (header size) term of
    /// the paper's analytical model, measured rather than assumed.
    pub fn wire_len(&self) -> usize {
        self.block.len()
    }

    /// Append the block to `out` in wire form, leaving out every entry
    /// named `skip`: a copy per run of kept lines, usually one.
    pub(crate) fn write_block_without(&self, out: &mut Vec<u8>, skip: &str) {
        let mut run = 0;
        for (start, entry) in self.lines() {
            if self.block[start..start + entry.name as usize].eq_ignore_ascii_case(skip) {
                out.extend_from_slice(&self.block.as_bytes()[run..start]);
                run = start + entry.line_len();
            }
        }
        out.extend_from_slice(&self.block.as_bytes()[run..]);
    }

    /// Parsed `Content-Length`, if present and valid.
    pub fn content_length(&self) -> Option<usize> {
        self.get("content-length")
            .and_then(|v| v.trim().parse().ok())
    }

    /// True when the message asks for the connection to be closed after it.
    pub fn connection_close(&self) -> bool {
        self.get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

impl fmt::Debug for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub method: Method,
    /// Origin-form target: path plus optional query, e.g.
    /// `/catalog.jsp?categoryID=Fiction`.
    pub target: String,
    pub headers: Headers,
    pub body: Bytes,
}

impl Request {
    /// A bodyless GET for `target`.
    pub fn get(target: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            target: target.into(),
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// A POST with the given body.
    pub fn post(target: impl Into<String>, body: impl Into<Bytes>) -> Request {
        Request {
            method: Method::Post,
            target: target.into(),
            headers: Headers::new(),
            body: body.into(),
        }
    }

    /// Builder-style header attachment.
    pub fn with_header(mut self, name: &str, value: impl AsRef<str>) -> Request {
        self.headers.set(name, value);
        self
    }

    /// Path component of the target (before `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// Query component of the target (after `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }
}

/// A response body: one contiguous buffer, or a *rope* of shared-buffer
/// segments.
///
/// The rope variant is the end of the zero-copy assembly path: the proxy
/// splices cached fragments into an assembled rope's `Vec<Bytes>` by
/// refcount bump, hands it to the response as `Body::Rope`, and the
/// serializer emits the segments with vectored writes — fragment bytes are
/// never memcpy'd into a flat page buffer on the way to the wire.
///
/// Parsed responses (client side) are always `Single`; handler-built
/// responses are `Single` unless they explicitly carry a rope.
///
/// Equality is content-based: a rope equals the single buffer holding the
/// same bytes, so oracle comparisons in tests work across both shapes.
#[derive(Debug, Clone)]
pub enum Body {
    /// One contiguous buffer.
    Single(Bytes),
    /// Ordered segments sharing their source buffers; concatenation is the
    /// body.
    Rope(Vec<Bytes>),
}

impl Body {
    /// The empty body (no allocation).
    pub const fn empty() -> Body {
        Body::Single(Bytes::new())
    }

    /// Total body length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Body::Single(b) => b.len(),
            Body::Rope(segs) => segs.iter().map(Bytes::len).sum(),
        }
    }

    pub fn is_empty(&self) -> bool {
        match self {
            Body::Single(b) => b.is_empty(),
            Body::Rope(segs) => segs.iter().all(Bytes::is_empty),
        }
    }

    /// The body as an ordered segment slice (a `Single` is one segment).
    pub fn segments(&self) -> &[Bytes] {
        match self {
            Body::Single(b) => std::slice::from_ref(b),
            Body::Rope(segs) => segs,
        }
    }

    /// The body as one contiguous [`Bytes`]. Zero-copy for `Single` and
    /// one-segment ropes (a refcount bump); multi-segment ropes are copied
    /// once. Reading paths (firewall scans, template parsing, tests) use
    /// this; the wire path uses [`segments`](Body::segments) and never
    /// flattens.
    pub fn flatten(&self) -> Bytes {
        match self {
            Body::Single(b) => b.clone(),
            Body::Rope(segs) if segs.len() == 1 => segs[0].clone(),
            Body::Rope(segs) => {
                let mut out = Vec::with_capacity(self.len());
                for seg in segs {
                    out.extend_from_slice(seg);
                }
                Bytes::from(out)
            }
        }
    }

    /// Copy the body out into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for seg in self.segments() {
            out.extend_from_slice(seg);
        }
        out
    }
}

impl Default for Body {
    fn default() -> Body {
        Body::empty()
    }
}

impl From<Bytes> for Body {
    fn from(b: Bytes) -> Body {
        Body::Single(b)
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Single(Bytes::from(v))
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::Single(Bytes::from(s))
    }
}

impl From<&'static str> for Body {
    fn from(s: &'static str) -> Body {
        Body::Single(Bytes::from_static(s.as_bytes()))
    }
}

impl From<&'static [u8]> for Body {
    fn from(b: &'static [u8]) -> Body {
        Body::Single(Bytes::from_static(b))
    }
}

impl From<Vec<Bytes>> for Body {
    fn from(segs: Vec<Bytes>) -> Body {
        Body::Rope(segs)
    }
}

/// Compare a segment list against a flat byte slice without allocating.
fn segments_eq_slice(segs: &[Bytes], mut other: &[u8]) -> bool {
    for seg in segs {
        let Some(head) = other.get(..seg.len()) else {
            return false;
        };
        if head != &seg[..] {
            return false;
        }
        other = &other[seg.len()..];
    }
    other.is_empty()
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        if self.len() != other.len() {
            return false;
        }
        // Two-cursor walk over both segment lists: compares content across
        // arbitrary segmentation without flattening either side.
        let (a, b) = (self.segments(), other.segments());
        let (mut ai, mut bi) = (0usize, 0usize);
        let (mut ao, mut bo) = (0usize, 0usize);
        loop {
            while ai < a.len() && ao == a[ai].len() {
                ai += 1;
                ao = 0;
            }
            while bi < b.len() && bo == b[bi].len() {
                bi += 1;
                bo = 0;
            }
            match (ai < a.len(), bi < b.len()) {
                (false, false) => return true,
                (true, true) => {}
                _ => return false, // lengths matched, so unreachable in fact
            }
            let n = (a[ai].len() - ao).min(b[bi].len() - bo);
            if a[ai][ao..ao + n] != b[bi][bo..bo + n] {
                return false;
            }
            ao += n;
            bo += n;
        }
    }
}

impl Eq for Body {}

impl PartialEq<[u8]> for Body {
    fn eq(&self, other: &[u8]) -> bool {
        segments_eq_slice(self.segments(), other)
    }
}

impl PartialEq<&[u8]> for Body {
    fn eq(&self, other: &&[u8]) -> bool {
        segments_eq_slice(self.segments(), other)
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Body {
    fn eq(&self, other: &[u8; N]) -> bool {
        segments_eq_slice(self.segments(), other)
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Body {
    fn eq(&self, other: &&[u8; N]) -> bool {
        segments_eq_slice(self.segments(), *other)
    }
}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        segments_eq_slice(self.segments(), other)
    }
}

impl PartialEq<Bytes> for Body {
    fn eq(&self, other: &Bytes) -> bool {
        segments_eq_slice(self.segments(), other)
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: Status,
    pub headers: Headers,
    pub body: Body,
}

impl Response {
    /// A 200 response with a body and `Content-Type: text/html`.
    pub fn html(body: impl Into<Body>) -> Response {
        let mut r = Response {
            status: Status::OK,
            headers: Headers::new(),
            body: body.into(),
        };
        r.headers.set("Content-Type", "text/html");
        r
    }

    /// An empty response with the given status.
    pub fn status(status: Status) -> Response {
        Response {
            status,
            headers: Headers::new(),
            body: Body::empty(),
        }
    }

    /// A plain-text error body with the given status.
    pub fn error(status: Status, msg: &str) -> Response {
        let mut r = Response {
            status,
            headers: Headers::new(),
            body: Body::Single(Bytes::copy_from_slice(msg.as_bytes())),
        };
        r.headers.set("Content-Type", "text/plain");
        r
    }

    /// Builder-style header attachment.
    pub fn with_header(mut self, name: &str, value: impl AsRef<str>) -> Response {
        self.headers.set(name, value);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_roundtrip() {
        for m in [Method::Get, Method::Post, Method::Head, Method::Purge] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("BREW"), None);
    }

    #[test]
    fn status_reasons() {
        assert_eq!(Status::OK.reason(), "OK");
        assert_eq!(Status(599).reason(), "Unknown");
        assert!(Status::OK.is_success());
        assert!(!Status::NOT_FOUND.is_success());
    }

    #[test]
    fn headers_case_insensitive_get() {
        let mut h = Headers::new();
        h.add("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert_eq!(h.get("x-missing"), None);
    }

    #[test]
    fn headers_set_replaces_all() {
        let mut h = Headers::new();
        h.add("X-A", "1");
        h.add("x-a", "2");
        h.set("X-A", "3");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("x-a"), Some("3"));
    }

    #[test]
    fn headers_remove_keeps_the_other_lines_in_order() {
        let mut h = Headers::new();
        h.add("A", "1");
        h.add("X-Gone", "2");
        h.add("B", "3");
        h.add("x-gone", "4");
        assert!(h.remove("X-GONE"));
        assert!(!h.remove("X-GONE"));
        assert_eq!(h.iter().collect::<Vec<_>>(), [("A", "1"), ("B", "3")]);
        assert_eq!(h.wire_len(), "A: 1\r\nB: 3\r\n".len());
        h.set("A", "5");
        assert_eq!(h.iter().collect::<Vec<_>>(), [("B", "3"), ("A", "5")]);
        assert_eq!(format!("{h:?}"), r#"[("B", "3"), ("A", "5")]"#);
    }

    #[test]
    fn block_copy_leaves_out_the_named_lines() {
        let mut h = Headers::new();
        h.add("Content-Length", "9");
        h.add("A", "b");
        h.add("content-length", "7");
        h.add("C", "d");
        let mut out = Vec::new();
        h.write_block_without(&mut out, "content-length");
        assert_eq!(out, b"A: b\r\nC: d\r\n");
    }

    #[test]
    fn headers_wire_len() {
        let mut h = Headers::new();
        h.add("A", "bb"); // "A: bb\r\n" = 7 bytes
        h.add("Cc", "d"); // "Cc: d\r\n" = 7 bytes
        assert_eq!(h.wire_len(), 14);
    }

    #[test]
    fn content_length_parse() {
        let mut h = Headers::new();
        h.set("Content-Length", " 42 ");
        assert_eq!(h.content_length(), Some(42));
        h.set("Content-Length", "nope");
        assert_eq!(h.content_length(), None);
    }

    #[test]
    fn request_path_and_query() {
        let r = Request::get("/catalog.jsp?categoryID=Fiction");
        assert_eq!(r.path(), "/catalog.jsp");
        assert_eq!(r.query(), Some("categoryID=Fiction"));
        let r2 = Request::get("/plain");
        assert_eq!(r2.path(), "/plain");
        assert_eq!(r2.query(), None);
    }

    #[test]
    fn response_builders() {
        let r = Response::html("<p>hi</p>");
        assert_eq!(r.status, Status::OK);
        assert_eq!(r.headers.get("content-type"), Some("text/html"));
        let e = Response::error(Status::NOT_FOUND, "gone");
        assert_eq!(e.status, Status::NOT_FOUND);
        assert_eq!(e.body, *b"gone");
    }

    #[test]
    fn body_len_and_flatten_across_shapes() {
        let single = Body::from("hello world");
        let rope = Body::Rope(vec![
            Bytes::from_static(b"hello"),
            Bytes::from_static(b" "),
            Bytes::from_static(b"world"),
        ]);
        assert_eq!(single.len(), 11);
        assert_eq!(rope.len(), 11);
        assert!(!rope.is_empty());
        assert!(Body::empty().is_empty());
        assert_eq!(rope.flatten(), Bytes::from_static(b"hello world"));
        assert_eq!(rope.to_vec(), b"hello world".to_vec());
        assert_eq!(single.segments().len(), 1);
        assert_eq!(rope.segments().len(), 3);
    }

    #[test]
    fn body_equality_is_content_based() {
        let single = Body::from("abcdef");
        let rope = Body::Rope(vec![Bytes::from_static(b"abc"), Bytes::from_static(b"def")]);
        let other = Body::Rope(vec![
            Bytes::from_static(b"ab"),
            Bytes::from_static(b"cd"),
            Bytes::from_static(b"ef"),
        ]);
        assert_eq!(single, rope);
        assert_eq!(rope, other);
        assert_eq!(rope, *b"abcdef");
        assert_eq!(rope, b"abcdef".to_vec());
        assert_ne!(rope, Body::from("abcdeX"));
        assert_ne!(rope, Body::from("abcde"));
        // Empty segments do not affect equality.
        let padded = Body::Rope(vec![
            Bytes::new(),
            Bytes::from_static(b"abcdef"),
            Bytes::new(),
        ]);
        assert_eq!(padded, single);
    }

    #[test]
    fn flatten_of_one_segment_rope_is_zero_copy() {
        let frag = Bytes::from(b"cached fragment".to_vec());
        let rope = Body::Rope(vec![frag.clone()]);
        let flat = rope.flatten();
        assert_eq!(flat.as_slice().as_ptr(), frag.as_slice().as_ptr());
    }

    #[test]
    fn connection_close_detection() {
        let r = Request::get("/").with_header("Connection", "close");
        assert!(r.headers.connection_close());
        let r2 = Request::get("/").with_header("Connection", "keep-alive");
        assert!(!r2.headers.connection_close());
    }
}
