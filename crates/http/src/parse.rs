//! HTTP/1.1 message parser: one head parser for requests and responses.
//!
//! Reads from any `BufRead`: the client's buffered stream, and, for the
//! event-loop server, the connection's unparsed bytes as a `&[u8]` (a
//! `BufRead` whose buffer is the whole slice). Each head line is found
//! with a slice search over the reader's buffer (`fill_buf`/`consume`)
//! and checked in place; only a line split across two refills of a
//! stream's buffer is gathered into a scratch copy first. The header lines
//! are copied once, trimmed, into the message's [`Headers`] block, sized
//! up front from the head when the reader's buffer already holds all of
//! it. Bodies are framed by `Content-Length` and read without being
//! zero-filled first; a response without one is read until EOF (legal for
//! `Connection: close` responses).

use bytes::Bytes;
use std::io::{BufRead, Read};

use crate::error::HttpError;
use crate::message::{Body, Headers, Method, Request, Response, Status};
use crate::Result;

/// Upper bound on a request/response head (start line + headers).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on a message body the parser will buffer.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Check one line, its LF already cut off, and hand it to `f`.
///
/// One trailing CR is dropped. A line holding any other control byte but
/// HTAB is malformed: RFC 9112 §3.2 allows none in a request-target and
/// RFC 9110 §5.5 none in a field value. A NUL let through would reach the
/// proxy's page keys (`target\0session`) inside a target or a cookie.
fn checked_line<T>(line: &[u8], f: impl FnOnce(&str) -> Result<T>) -> Result<T> {
    if line.len() > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge {
            what: "header line",
            limit: MAX_HEAD_BYTES,
        });
    }
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    if line.iter().any(|b| b.is_ascii_control() && *b != b'\t') {
        return Err(HttpError::malformed("control byte in header line"));
    }
    let line =
        std::str::from_utf8(line).map_err(|_| HttpError::malformed("non-utf8 header line"))?;
    f(line)
}

/// Read one LF-terminated line and hand it to `f` without its
/// terminator.
///
/// The line is searched for in the reader's buffer and borrowed from it;
/// only a line that the buffer's end splits is gathered into `split`.
/// Returns `ConnectionClosed` when EOF arrives: `clean` is true only for
/// EOF before the first byte of a message's start line (used to
/// distinguish a keep-alive peer going away from a truncated message).
fn read_line<R: BufRead, T>(
    reader: &mut R,
    split: &mut Vec<u8>,
    first_of_message: bool,
    f: impl FnOnce(&str) -> Result<T>,
) -> Result<T> {
    split.clear();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Err(HttpError::ConnectionClosed {
                clean: first_of_message && split.is_empty(),
            });
        }
        let Some(nl) = buf.iter().position(|b| *b == b'\n') else {
            let n = buf.len();
            split.extend_from_slice(buf);
            reader.consume(n);
            if split.len() > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge {
                    what: "header line",
                    limit: MAX_HEAD_BYTES,
                });
            }
            continue;
        };
        let out = if split.is_empty() {
            checked_line(&buf[..nl], f)
        } else {
            split.extend_from_slice(&buf[..nl]);
            checked_line(split, f)
        };
        reader.consume(nl + 1);
        return out;
    }
}

/// Block bytes and entries a parsed head reserves beyond its own: room
/// for what a forwarding hop adds (`X-Cache`, an `ETag`) without a
/// regrowth.
const HOP_SLACK_BYTES: usize = 64;
const HOP_SLACK_ENTRIES: usize = 4;

/// Headers sized for the header block at the front of `buf`, when `buf`
/// holds all of it: its bytes plus two per line bound the trimmed
/// `name: value\r\n` form, so parsing never regrows the block.
fn headers_for(buf: &[u8]) -> Headers {
    let mut lines = 0;
    let mut at = 0;
    while let Some(off) = buf[at..].iter().position(|b| *b == b'\n') {
        let line = &buf[at..at + off];
        if line.is_empty() || line == b"\r" {
            if lines == 0 {
                return Headers::new();
            }
            return Headers::with_capacity(
                at + 2 * lines + HOP_SLACK_BYTES,
                lines + HOP_SLACK_ENTRIES,
            );
        }
        lines += 1;
        at += off + 1;
    }
    Headers::new()
}

/// Parse the header block (after the start line) up to the blank line.
fn read_headers<R: BufRead>(reader: &mut R, split: &mut Vec<u8>) -> Result<Headers> {
    let mut headers = headers_for(reader.fill_buf()?);
    let mut total = 0usize;
    loop {
        let done = read_line(reader, split, false, |line| {
            if line.is_empty() {
                return Ok(true);
            }
            total += line.len();
            if total > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge {
                    what: "header block",
                    limit: MAX_HEAD_BYTES,
                });
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::malformed(format!("header without colon: {line:?}")))?;
            headers.add(name.trim(), value.trim());
            Ok(false)
        })?;
        if done {
            return Ok(headers);
        }
    }
}

/// Read exactly `len` body bytes into a buffer that is not zero-filled
/// first.
fn read_body<R: BufRead>(reader: &mut R, len: usize) -> Result<Bytes> {
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge {
            what: "body",
            limit: MAX_BODY_BYTES,
        });
    }
    if len == 0 {
        return Ok(Bytes::new());
    }
    let mut body = Vec::with_capacity(len);
    reader.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(HttpError::ConnectionClosed { clean: false });
    }
    Ok(Bytes::from(body))
}

/// Parse one request from `reader`.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request> {
    let mut split = Vec::new();
    let (method, target) = read_line(reader, &mut split, true, |start| {
        let mut parts = start.split_ascii_whitespace();
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or_else(|| HttpError::malformed(format!("bad method in {start:?}")))?;
        let target = parts
            .next()
            .ok_or_else(|| HttpError::malformed("missing request target"))?;
        let version = parts
            .next()
            .ok_or_else(|| HttpError::malformed("missing http version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::malformed(format!(
                "unsupported version {version:?}"
            )));
        }
        Ok((method, target.to_owned()))
    })?;
    let headers = read_headers(reader, &mut split)?;
    let body = match headers.content_length() {
        Some(n) => read_body(reader, n)?,
        None => Bytes::new(),
    };
    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// How far one complete request frame extends into a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// No blank line yet; the head has been scanned up to `scanned` bytes
    /// (resume the search there — re-scanning from 0 on every arriving
    /// chunk would make ingestion quadratic).
    Partial { scanned: usize },
    /// The head ends at `head` and the frame (head + declared body) spans
    /// `total` bytes.
    Complete { head: usize, total: usize },
}

/// Locate the end of a request frame without parsing it, starting the
/// blank-line search at `scanned` (from a previous [`Frame::Partial`]).
///
/// This is the cheap framing gate in front of [`try_parse_request`]: the
/// event-loop server only attempts a full parse once the frame is complete,
/// so a body arriving in many chunks is parsed (and its buffer allocated)
/// exactly once instead of once per readable event. The `Content-Length`
/// scan here is advisory — the authoritative value is re-read by the real
/// parser, and any disagreement surfaces there as a parse error.
pub fn frame_len(buf: &[u8], scanned: usize) -> Frame {
    // Resume a few bytes back: a "\r\n\r\n" terminator may span the chunk
    // boundary where the previous scan stopped.
    let mut i = scanned.saturating_sub(3);
    let head = loop {
        let Some(off) = buf[i..].iter().position(|b| *b == b'\n') else {
            return Frame::Partial { scanned: buf.len() };
        };
        let nl = i + off;
        match (buf.get(nl + 1), buf.get(nl + 2)) {
            (Some(b'\n'), _) => break nl + 2,           // lenient "\n\n"
            (Some(b'\r'), Some(b'\n')) => break nl + 3, // "\n\r\n"
            (None, _) | (Some(b'\r'), None) => return Frame::Partial { scanned: buf.len() },
            _ => i = nl + 1,
        }
    };
    let body = head_content_length(&buf[..head]);
    Frame::Complete {
        head,
        total: head.saturating_add(body),
    }
}

/// Advisory `Content-Length` of a complete head (0 when absent/unparsable).
fn head_content_length(head: &[u8]) -> usize {
    for line in head.split(|b| *b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|b| *b == b':') else {
            continue;
        };
        if line[..colon]
            .trim_ascii()
            .eq_ignore_ascii_case(b"content-length")
        {
            return std::str::from_utf8(&line[colon + 1..])
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
        }
    }
    0
}

/// Attempt to parse one complete request from the front of `buf` without
/// blocking: the event-loop server's incremental entry point.
///
/// Returns `Ok(Some((request, consumed)))` when `buf` holds a complete
/// request in its first `consumed` bytes, `Ok(None)` when more bytes are
/// needed (a partial head or body — the slow-loris state), and `Err` when
/// the prefix can never become a valid request (malformed start line or
/// header, or a head/body over the size limits).
pub fn try_parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>> {
    let mut rest = buf;
    match read_request(&mut rest) {
        Ok(req) => Ok(Some((req, buf.len() - rest.len()))),
        // EOF inside the incremental buffer just means "incomplete": the
        // connection is still open and more bytes may arrive.
        Err(HttpError::ConnectionClosed { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Parse one response from `reader`.
///
/// When the response carries no `Content-Length`, the body is everything up
/// to EOF (the `Connection: close` framing).
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response> {
    let mut split = Vec::new();
    let code = read_line(reader, &mut split, true, |start| {
        let mut parts = start.split_ascii_whitespace();
        let version = parts
            .next()
            .ok_or_else(|| HttpError::malformed("empty status line"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::malformed(format!(
                "unsupported version {version:?}"
            )));
        }
        parts
            .next()
            .and_then(|c| c.parse::<u16>().ok())
            .ok_or_else(|| HttpError::malformed(format!("bad status in {start:?}")))
    })?;
    let headers = read_headers(reader, &mut split)?;
    let body = match headers.content_length() {
        Some(n) => read_body(reader, n)?,
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            if buf.len() > MAX_BODY_BYTES {
                return Err(HttpError::TooLarge {
                    what: "body",
                    limit: MAX_BODY_BYTES,
                });
            }
            Bytes::from(buf)
        }
    };
    Ok(Response {
        status: Status(code),
        headers,
        body: Body::Single(body),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn cursor(s: &[u8]) -> BufReader<&[u8]> {
        BufReader::new(s)
    }

    #[test]
    fn parse_simple_get() {
        let raw = b"GET /index.html?x=1 HTTP/1.1\r\nHost: site\r\n\r\n";
        let req = read_request(&mut cursor(raw)).unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target, "/index.html?x=1");
        assert_eq!(req.headers.get("host"), Some("site"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parse_post_with_body() {
        let raw = b"POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut cursor(raw)).unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(&req.body[..], b"hello");
    }

    #[test]
    fn frame_len_finds_head_and_body_extent() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let head = raw.len() - 5;
        assert_eq!(
            frame_len(raw, 0),
            Frame::Complete {
                head,
                total: raw.len()
            }
        );
        // Lenient LF-only framing.
        assert_eq!(
            frame_len(b"GET / HTTP/1.1\nHost: a\n\n", 0),
            Frame::Complete {
                head: 24,
                total: 24
            }
        );
        // No Content-Length: frame is just the head.
        assert_eq!(
            frame_len(b"GET / HTTP/1.1\r\n\r\ntrailing", 0),
            Frame::Complete {
                head: 18,
                total: 18
            }
        );
    }

    #[test]
    fn frame_len_resumes_incremental_scans() {
        let full = b"GET /long HTTP/1.1\r\nX-A: 1\r\nX-B: 2\r\n\r\n";
        let mut scanned = 0;
        // Feed the head a few bytes at a time; each Partial resumes where
        // the last scan stopped and the final chunk completes the frame.
        for cut in [5, 19, 30, full.len() - 1] {
            match frame_len(&full[..cut], scanned) {
                Frame::Partial { scanned: s } => scanned = s,
                complete => panic!("cut {cut} unexpectedly complete: {complete:?}"),
            }
        }
        assert_eq!(
            frame_len(full, scanned),
            Frame::Complete {
                head: full.len(),
                total: full.len()
            }
        );
    }

    #[test]
    fn frame_len_terminator_spanning_chunk_boundary() {
        let full = b"GET / HTTP/1.1\r\n\r\n";
        // Stop mid-terminator: "…\r\n\r" — the resume backoff must still
        // find the full terminator once the last byte arrives.
        let Frame::Partial { scanned } = frame_len(&full[..full.len() - 1], 0) else {
            panic!("mid-terminator must be partial");
        };
        assert_eq!(
            frame_len(full, scanned),
            Frame::Complete {
                head: 18,
                total: 18
            }
        );
    }

    #[test]
    fn frame_len_advisory_content_length_is_lenient() {
        // Unparsable Content-Length values degrade to 0 (the authoritative
        // parse rejects or reinterprets them; the gate must not stall).
        let raw = b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert_eq!(
            frame_len(raw, 0),
            Frame::Complete {
                head: raw.len(),
                total: raw.len()
            }
        );
    }

    #[test]
    fn parse_tolerates_lf_only_lines() {
        let raw = b"GET / HTTP/1.1\nHost: a\n\n";
        let req = read_request(&mut cursor(raw)).unwrap();
        assert_eq!(req.headers.get("host"), Some("a"));
    }

    #[test]
    fn clean_eof_before_request() {
        let err = read_request(&mut cursor(b"")).unwrap_err();
        assert!(err.is_clean_close());
    }

    #[test]
    fn dirty_eof_mid_head() {
        let err = read_request(&mut cursor(b"GET / HTTP/1.1\r\nHost")).unwrap_err();
        assert!(matches!(err, HttpError::ConnectionClosed { clean: false }));
    }

    #[test]
    fn dirty_eof_mid_body() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        let err = read_request(&mut cursor(raw)).unwrap_err();
        assert!(matches!(err, HttpError::ConnectionClosed { clean: false }));
    }

    #[test]
    fn rejects_unknown_method() {
        let err = read_request(&mut cursor(b"BREW / HTTP/1.1\r\n\r\n")).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn rejects_bad_version() {
        let err = read_request(&mut cursor(b"GET / SPDY/9\r\n\r\n")).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn rejects_header_without_colon() {
        let err =
            read_request(&mut cursor(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n")).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn rejects_control_bytes_in_target_and_header_values() {
        for raw in [
            &b"GET /paper/page.jsp?p=0\0x HTTP/1.1\r\n\r\n"[..],
            b"GET /a\x01b HTTP/1.1\r\n\r\n",
            b"GET /a\rb HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nCookie: session=\0\r\n\r\n",
            b"GET / HTTP/1.1\r\nCookie: session=a\x7fb\r\n\r\n",
            b"GET / HTTP/1.1\r\nX\0Y: 1\r\n\r\n",
        ] {
            let err = read_request(&mut cursor(raw)).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{raw:?}: {err}");
        }
        // HTAB stays legal inside a field value.
        let req = read_request(&mut cursor(b"GET / HTTP/1.1\r\nX: a\tb\r\n\r\n")).unwrap();
        assert_eq!(req.headers.get("x"), Some("a\tb"));
    }

    #[test]
    fn over_long_lines_are_too_large_however_the_stream_is_buffered() {
        let mut raw = b"GET /".to_vec();
        raw.resize(MAX_HEAD_BYTES + 8, b'a');
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let too_large = |r: Result<Request>| matches!(r, Err(HttpError::TooLarge { .. }));
        assert!(too_large(read_request(&mut cursor(&raw))));
        assert!(too_large(read_request(&mut BufReader::with_capacity(
            7,
            &raw[..]
        ))));
        // Without its LF the line is already hopeless once past the limit.
        let cut = &raw[..MAX_HEAD_BYTES + 4];
        assert!(too_large(read_request(&mut BufReader::with_capacity(
            64, cut
        ))));
        assert!(try_parse_request(cut).is_err());
    }

    #[test]
    fn lines_split_across_refills_parse_like_whole_ones() {
        let raw = b"POST /a?b=c HTTP/1.1\r\nHost:  x \r\nX-Long: 0123456789\r\nContent-Length: 3\r\n\r\nabc";
        let whole = read_request(&mut cursor(raw)).unwrap();
        for k in 1..raw.len() {
            let split = read_request(&mut BufReader::with_capacity(k, &raw[..])).unwrap();
            assert_eq!(split, whole, "buffer of {k}");
        }
        assert_eq!(whole.headers.get("host"), Some("x"));
        assert_eq!(
            whole.headers.wire_len(),
            b"Host: x\r\nX-Long: 0123456789\r\nContent-Length: 3\r\n".len()
        );
    }

    #[test]
    fn parse_response_with_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nX: y\r\n\r\nbody";
        let resp = read_response(&mut cursor(raw)).unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body, *b"body");
        assert_eq!(resp.headers.get("x"), Some("y"));
    }

    #[test]
    fn parse_response_until_eof_without_length() {
        let raw = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\neverything until eof";
        let resp = read_response(&mut cursor(raw)).unwrap();
        assert_eq!(resp.body, *b"everything until eof");
    }

    #[test]
    fn try_parse_incomplete_head_is_none() {
        assert!(try_parse_request(b"").unwrap().is_none());
        assert!(try_parse_request(b"GET / HT").unwrap().is_none());
        assert!(try_parse_request(b"GET / HTTP/1.1\r\nHost: a\r\n")
            .unwrap()
            .is_none());
    }

    #[test]
    fn try_parse_incomplete_body_is_none() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(try_parse_request(raw).unwrap().is_none());
    }

    #[test]
    fn try_parse_complete_reports_consumed_bytes() {
        let one = b"POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut buf = one.to_vec();
        buf.extend_from_slice(b"GET /b HTTP/1.1\r\n\r\ntrailing");
        let (req, used) = try_parse_request(&buf).unwrap().unwrap();
        assert_eq!(req.target, "/a");
        assert_eq!(&req.body[..], b"hello");
        assert_eq!(used, one.len());
        // The next pipelined request parses from the remainder.
        let (req2, used2) = try_parse_request(&buf[used..]).unwrap().unwrap();
        assert_eq!(req2.target, "/b");
        assert_eq!(used + used2, buf.len() - "trailing".len());
    }

    #[test]
    fn try_parse_malformed_is_an_error() {
        assert!(try_parse_request(b"BREW / HTTP/1.1\r\n\r\n").is_err());
        // A malformed start line is rejected as soon as its line completes,
        // even with no further bytes.
        assert!(try_parse_request(b"NOT-HTTP\r\n").is_err());
    }

    #[test]
    fn parse_response_status_codes() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let resp = read_response(&mut cursor(raw)).unwrap();
        assert_eq!(resp.status, Status::NOT_FOUND);
    }

    #[test]
    fn header_values_are_trimmed() {
        let raw = b"GET / HTTP/1.1\r\nHost:   spaced.example   \r\n\r\n";
        let req = read_request(&mut cursor(raw)).unwrap();
        assert_eq!(req.headers.get("host"), Some("spaced.example"));
    }

    #[test]
    fn binary_body_passes_through() {
        let mut raw = b"POST /b HTTP/1.1\r\nContent-Length: 4\r\n\r\n".to_vec();
        raw.extend_from_slice(&[0x01, 0x02, 0xFF, 0x00]);
        let req = read_request(&mut cursor(&raw)).unwrap();
        assert_eq!(&req.body[..], &[0x01, 0x02, 0xFF, 0x00]);
    }
}
