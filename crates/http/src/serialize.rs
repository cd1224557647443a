//! HTTP message serialization.
//!
//! Output is byte-deterministic: header order is preserved and
//! `Content-Length` is always emitted (set from the actual body length),
//! which keeps the bandwidth benches reproducible run to run. A head is
//! the start line, a copy of the message's [`Headers`] block in wire form
//! (less any stale `Content-Length` line) and the real `Content-Length`:
//! no per-header formatting.
//!
//! Responses are emitted as a *segment list* — the head (status line +
//! headers) followed by the body's rope segments — and written with
//! vectored I/O ([`Write::write_vectored`]). A cached fragment spliced into
//! a [`Body::Rope`](crate::message::Body) therefore travels from the slot
//! store to the wire without ever being copied into a flat page buffer;
//! the only bytes built per response are the few dozen of the head.
//!
//! [`Headers`]: crate::message::Headers

use std::io::{IoSlice, Write};

use bytes::Bytes;

use crate::message::{Request, Response};
use crate::Result;

/// Maximum buffers passed to one `write_vectored` call (mirrors typical
/// `IOV_MAX`-style limits).
pub(crate) const MAX_IOVEC: usize = 64;

/// Append the decimal digits of `n`.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `Content-Length: {len}\r\n`.
fn push_content_length(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(b"Content-Length: ");
    push_decimal(out, len);
    out.extend_from_slice(b"\r\n");
}

/// Serialize `req` to `w`, fixing up `Content-Length` from the body.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> Result<()> {
    let mut buf = Vec::new();
    encode_request(&mut buf, req);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Append the wire image of `req` to `out`: the head, with
/// `Content-Length` fixed up from the body (and left out for an empty
/// one), then the body.
pub(crate) fn encode_request(out: &mut Vec<u8>, req: &Request) {
    out.reserve(req.target.len() + req.headers.wire_len() + 48 + req.body.len());
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    req.headers.write_block_without(out, "content-length");
    if !req.body.is_empty() {
        push_content_length(out, req.body.len());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&req.body);
}

/// The response head: status line + headers + blank line, with
/// `Content-Length` fixed up from the actual body length.
pub fn response_head(resp: &Response) -> Vec<u8> {
    let reason = resp.status.reason();
    let mut head = Vec::with_capacity(reason.len() + resp.headers.wire_len() + 64);
    head.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(&mut head, usize::from(resp.status.0));
    head.push(b' ');
    head.extend_from_slice(reason.as_bytes());
    head.extend_from_slice(b"\r\n");
    resp.headers
        .write_block_without(&mut head, "content-length");
    push_content_length(&mut head, resp.body.len());
    head.extend_from_slice(b"\r\n");
    head
}

/// Append the wire image of `resp` to `out` as segments: the head
/// followed by the body's segments (empty ones skipped), each a refcount
/// bump of its source buffer. Returns the bytes appended. This is what the
/// event-loop server queues per connection and drains with vectored
/// writes.
pub(crate) fn push_response_segments(out: &mut Vec<Bytes>, resp: &Response) -> usize {
    let head = Bytes::from(response_head(resp));
    let mut added = head.len();
    out.push(head);
    for seg in resp.body.segments() {
        if !seg.is_empty() {
            added += seg.len();
            out.push(seg.clone());
        }
    }
    added
}

/// The full wire image of `resp` as an ordered segment list: the head
/// followed by the body's non-empty segments, each a refcount bump of its
/// source buffer.
pub fn response_segments(resp: &Response) -> Vec<Bytes> {
    let mut segments = Vec::with_capacity(1 + resp.body.segments().len());
    push_response_segments(&mut segments, resp);
    segments
}

/// Write every byte of `segments` to `w` using vectored I/O, resuming
/// across partial writes.
pub fn write_all_vectored<W: Write>(w: &mut W, segments: &[Bytes]) -> std::io::Result<()> {
    let mut seg = 0usize;
    let mut off = 0usize;
    let mut slices = [IoSlice::new(&[]); MAX_IOVEC];
    loop {
        let n = gather_slices(segments, seg, off, &mut slices);
        if n == 0 {
            return Ok(());
        }
        let n = w.write_vectored(&slices[..n])?;
        if n == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        advance_cursor(segments, &mut seg, &mut off, n);
    }
}

/// Fill `slices` with up to [`MAX_IOVEC`] `IoSlice`s from `segments`
/// starting at the `(seg, off)` cursor, skipping empty/consumed segments,
/// and return how many it filled; 0 means the cursor is at the end.
/// Shared by the blocking writer above and the event-loop server's
/// nonblocking flush, so the gather arithmetic has one home.
pub(crate) fn gather_slices<'a>(
    segments: &'a [Bytes],
    mut seg: usize,
    mut off: usize,
    slices: &mut [IoSlice<'a>; MAX_IOVEC],
) -> usize {
    while seg < segments.len() && off >= segments[seg].len() {
        seg += 1;
        off = 0;
    }
    if seg >= segments.len() {
        return 0;
    }
    slices[0] = IoSlice::new(&segments[seg][off..]);
    let mut n = 1;
    for s in &segments[seg + 1..] {
        if n == MAX_IOVEC {
            break;
        }
        if !s.is_empty() {
            slices[n] = IoSlice::new(s);
            n += 1;
        }
    }
    n
}

/// Advance the `(seg, off)` cursor past `n` accepted bytes (the counterpart
/// of [`gather_slices`]).
pub(crate) fn advance_cursor(segments: &[Bytes], seg: &mut usize, off: &mut usize, mut n: usize) {
    while n > 0 && *seg < segments.len() {
        let left = segments[*seg].len() - *off;
        if n < left {
            *off += n;
            return;
        }
        n -= left;
        *seg += 1;
        *off = 0;
    }
}

/// Serialize `resp` to `w`, fixing up `Content-Length` from the body.
///
/// Rope bodies go out segment by segment via [`write_all_vectored`]; their
/// fragment bytes are never flattened into an intermediate buffer.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> Result<()> {
    let segments = response_segments(resp);
    write_all_vectored(w, &segments)?;
    w.flush()?;
    Ok(())
}

/// Serialized size in bytes of `resp` (what [`write_response`] would emit).
pub fn response_wire_len(resp: &Response) -> usize {
    response_head(resp).len() + resp.body.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Body, Request, Response, Status};
    use crate::parse::{read_request, read_response};
    use std::io::BufReader;

    #[test]
    fn request_roundtrip() {
        let req = Request::post("/a?b=c", "payload")
            .with_header("Host", "x")
            .with_header("X-Test", "1");
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let parsed = read_request(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(parsed.method, req.method);
        assert_eq!(parsed.target, req.target);
        assert_eq!(parsed.body, req.body);
        assert_eq!(parsed.headers.get("x-test"), Some("1"));
        assert_eq!(parsed.headers.content_length(), Some(7));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::html("<h1>ok</h1>").with_header("Server", "dpc");
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let parsed = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(parsed.status, Status::OK);
        assert_eq!(parsed.body, resp.body);
        assert_eq!(parsed.headers.get("server"), Some("dpc"));
    }

    #[test]
    fn rope_body_roundtrips_and_keeps_segments_unflattened() {
        let frag = Bytes::from(b"CACHED-FRAGMENT".to_vec());
        let mut resp = Response::html("");
        resp.body = Body::Rope(vec![
            Bytes::from_static(b"<page>"),
            frag.clone(),
            Bytes::from_static(b"</page>"),
        ]);
        // The wire segment for the fragment is pointer-identical to the
        // cached buffer: a refcount bump, not a copy.
        let segments = response_segments(&resp);
        assert!(segments
            .iter()
            .any(|s| s.as_slice().as_ptr() == frag.as_slice().as_ptr()));
        // And the serialized stream parses back to the same content.
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let parsed = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(parsed.body, resp.body);
        assert_eq!(parsed.headers.content_length(), Some(28));
    }

    #[test]
    fn empty_rope_segments_are_skipped_on_the_wire() {
        let mut resp = Response::html("");
        resp.body = Body::Rope(vec![
            Bytes::new(),
            Bytes::from_static(b"x"),
            Bytes::new(),
            Bytes::from_static(b"y"),
        ]);
        let segments = response_segments(&resp);
        assert_eq!(segments.len(), 3); // head + "x" + "y"
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let parsed = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(parsed.body, *b"xy");
    }

    #[test]
    fn write_all_vectored_resumes_across_partial_writes() {
        /// Accepts at most 3 bytes per call, to force resumption.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let segments = vec![
            Bytes::from_static(b"abcde"),
            Bytes::new(),
            Bytes::from_static(b"fg"),
            Bytes::from_static(b"hijklmno"),
        ];
        let mut sink = Trickle(Vec::new());
        write_all_vectored(&mut sink, &segments).unwrap();
        assert_eq!(sink.0, b"abcdefghijklmno");
    }

    #[test]
    fn content_length_is_authoritative() {
        // A stale Content-Length on the message is replaced by the real one.
        let mut resp = Response::html("12345");
        resp.headers.set("Content-Length", "999");
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let parsed = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(parsed.headers.content_length(), Some(5));
    }

    #[test]
    fn bodyless_request_has_no_content_length() {
        let req = Request::get("/");
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(!s.to_ascii_lowercase().contains("content-length"));
    }

    #[test]
    fn wire_len_matches_serialization() {
        let resp = Response::html("x".repeat(1000)).with_header("Server", "dpc");
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        assert_eq!(response_wire_len(&resp), buf.len());
    }

    #[test]
    fn empty_body_response_serializes_zero_length() {
        let resp = Response::status(Status::NOT_MODIFIED);
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Content-Length: 0"));
    }
}
