//! Randomized property tests for the HTTP layer: serialize∘parse = identity
//! for arbitrary messages, the same parse whichever way the bytes are fed,
//! URI canonicalization, and framing robustness.
//!
//! Cases are generated from a seeded [`StdRng`], so every run explores the
//! same corpus deterministically.

use bytes::Bytes;
use dpc_http::parse::{read_request, read_response, try_parse_request};
use dpc_http::serialize::{write_request, write_response};
use dpc_http::uri::{percent_decode, percent_encode, Uri};
use dpc_http::{Headers, HttpError, Method, Request, Response, Status};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::BufReader;

/// Read-buffer sizes the feeding-mode differential runs every message
/// through: each head line straddles several refills at the small ones.
const BUFFER_SIZES: [usize; 4] = [1, 2, 7, 64];

fn random_from(rng: &mut StdRng, alphabet: &[u8], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.random_range(0..alphabet.len())] as char)
        .collect()
}

/// Header names: RFC 7230 tokens, avoiding the names the serializer treats
/// specially (those are exercised elsewhere).
fn header_name(rng: &mut StdRng) -> String {
    const FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-";
    loop {
        let mut name = random_from(rng, FIRST, 1);
        let rest_len = rng.random_range(0..20usize);
        name.push_str(&random_from(rng, REST, rest_len));
        if !name.eq_ignore_ascii_case("content-length") && !name.eq_ignore_ascii_case("connection")
        {
            return name;
        }
    }
}

/// Header values: printable ASCII without CR/LF, trimmed.
fn header_value(rng: &mut StdRng) -> String {
    let printable: Vec<u8> = (0x20u8..=0x7e).collect();
    let len = rng.random_range(0..40usize);
    random_from(rng, &printable, len).trim().to_owned()
}

fn random_target(rng: &mut StdRng) -> String {
    const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/._-";
    const QUERY: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789=&%+.-";
    let mut t = String::from("/");
    let path_len = rng.random_range(0..30usize);
    t.push_str(&random_from(rng, PATH, path_len));
    if rng.random_bool(0.5) {
        t.push('?');
        let query_len = rng.random_range(0..30usize);
        t.push_str(&random_from(rng, QUERY, query_len));
    }
    t
}

fn random_body(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    (0..rng.random_range(0..max_len))
        .map(|_| rng.random_range(0..=255u8))
        .collect()
}

fn random_headers(rng: &mut StdRng) -> Vec<(String, String)> {
    (0..rng.random_range(0..8usize))
        .map(|_| (header_name(rng), header_value(rng)))
        .collect()
}

/// A random request and the header pairs it was built from.
fn random_request(rng: &mut StdRng) -> (Request, Vec<(String, String)>) {
    let target = random_target(rng);
    let method =
        [Method::Get, Method::Post, Method::Head, Method::Purge][rng.random_range(0..4usize)];
    let headers = random_headers(rng);
    let body = random_body(rng, 512);
    let mut req = Request {
        method,
        target,
        headers: Headers::new(),
        body: Bytes::from(body),
    };
    for (n, v) in &headers {
        req.headers.add(n, v);
    }
    (req, headers)
}

/// A random response.
fn random_response(rng: &mut StdRng) -> Response {
    let code = rng.random_range(100..600u16);
    let headers = random_headers(rng);
    let body = random_body(rng, 512);
    let mut resp = Response {
        status: Status(code),
        headers: Headers::new(),
        body: dpc_http::Body::Single(Bytes::from(body)),
    };
    for (n, v) in &headers {
        resp.headers.add(n, v);
    }
    resp
}

fn request_wire(req: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    write_request(&mut wire, req).unwrap();
    wire
}

#[test]
fn request_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x11_7E57);
    for _case in 0..192 {
        let (req, headers) = random_request(&mut rng);
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let parsed = read_request(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(parsed.method, req.method);
        assert_eq!(parsed.target, req.target);
        assert_eq!(parsed.body, req.body);
        for (n, _) in &headers {
            // First value of each name survives (multi-value order kept).
            let first = headers
                .iter()
                .find(|(n2, _)| n2.eq_ignore_ascii_case(n))
                .map(|(_, v2)| v2);
            assert_eq!(parsed.headers.get(n), first.map(String::as_str));
        }
    }
}

#[test]
fn response_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x12_7E57);
    for _case in 0..192 {
        let resp = random_response(&mut rng);
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let parsed = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(parsed.status, resp.status);
        assert_eq!(parsed.body, resp.body);
    }
}

/// Every request parses to the same `Request` whether its bytes come from
/// one buffer, from a stream buffered `k` bytes at a time (lines straddle
/// the refills), or one byte at a time through the event loop's
/// incremental entry point (`Ok(None)` until the last byte).
#[test]
fn requests_parse_the_same_in_every_feeding_mode() {
    let mut rng = StdRng::seed_from_u64(0x17_7E57);
    for case in 0..192 {
        let (req, _) = random_request(&mut rng);
        let wire = request_wire(&req);
        let whole = read_request(&mut BufReader::new(&wire[..])).unwrap();
        for k in BUFFER_SIZES {
            let parsed = read_request(&mut BufReader::with_capacity(k, &wire[..])).unwrap();
            assert_eq!(parsed, whole, "case {case}, buffer {k}");
        }
        let (parsed, used) = try_parse_request(&wire).unwrap().expect("complete");
        assert_eq!((parsed, used), (whole.clone(), wire.len()), "case {case}");
        if case % 4 == 0 {
            for cut in 0..wire.len() {
                assert!(
                    try_parse_request(&wire[..cut]).unwrap().is_none(),
                    "case {case}: {cut} of {} bytes parsed as complete",
                    wire.len()
                );
            }
        }
    }
}

/// Every response parses to the same `Response` however its stream is
/// buffered.
#[test]
fn responses_parse_the_same_in_every_feeding_mode() {
    let mut rng = StdRng::seed_from_u64(0x18_7E57);
    for case in 0..192 {
        let resp = random_response(&mut rng);
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let whole = read_response(&mut BufReader::new(&wire[..])).unwrap();
        for k in BUFFER_SIZES {
            let parsed = read_response(&mut BufReader::with_capacity(k, &wire[..])).unwrap();
            assert_eq!(parsed, whole, "case {case}, buffer {k}");
        }
    }
}

/// A NUL or a bare CR anywhere inside a head line is malformed in every
/// feeding mode; the incremental parser never reports the head complete.
#[test]
fn control_bytes_in_a_head_line_are_rejected_in_every_mode() {
    let mut rng = StdRng::seed_from_u64(0x19_7E57);
    for case in 0..192 {
        let (req, _) = random_request(&mut rng);
        let mut wire = request_wire(&req);
        let head = wire.len() - req.body.len();
        let at = rng.random_range(0..head);
        wire.insert(at, if case % 2 == 0 { 0 } else { b'\r' });
        let malformed = |r: Result<Request, HttpError>| matches!(r, Err(HttpError::Malformed(_)));
        assert!(
            malformed(read_request(&mut BufReader::new(&wire[..]))),
            "case {case}: byte at {at}"
        );
        for k in BUFFER_SIZES {
            let parsed = read_request(&mut BufReader::with_capacity(k, &wire[..]));
            assert!(malformed(parsed), "case {case}: byte at {at}, buffer {k}");
        }
        assert!(
            matches!(try_parse_request(&wire), Err(HttpError::Malformed(_))),
            "case {case}: byte at {at}"
        );
        for cut in 0..wire.len() {
            assert!(
                !matches!(try_parse_request(&wire[..cut]), Ok(Some(_))),
                "case {case}: byte at {at}, {cut} bytes complete"
            );
        }
    }
}

/// The pairs a sequence of `add`/`set`/`remove` calls leaves, replayed on
/// a plain list.
#[derive(Clone, Copy, Debug)]
enum Op {
    Add(usize, usize),
    Set(usize, usize),
    Remove(usize),
}

const NAMES: [&str; 4] = ["Host", "host", "X-Cache", "ETag"];
const VALUES: [&str; 3] = ["a", "b: c", ""];

fn apply(h: &mut Headers, model: &mut Vec<(String, String)>, op: Op) {
    match op {
        Op::Add(n, v) => {
            h.add(NAMES[n], VALUES[v]);
            model.push((NAMES[n].to_owned(), VALUES[v].to_owned()));
        }
        Op::Set(n, v) => {
            h.set(NAMES[n], VALUES[v]);
            model.retain(|(name, _)| !name.eq_ignore_ascii_case(NAMES[n]));
            model.push((NAMES[n].to_owned(), VALUES[v].to_owned()));
        }
        Op::Remove(n) => {
            let removed = h.remove(NAMES[n]);
            let before = model.len();
            model.retain(|(name, _)| !name.eq_ignore_ascii_case(NAMES[n]));
            assert_eq!(removed, model.len() != before);
        }
    }
}

fn random_history(rng: &mut StdRng) -> (Headers, Vec<(String, String)>) {
    let (mut h, mut model) = (Headers::new(), Vec::new());
    for _ in 0..rng.random_range(0..8usize) {
        let (n, v) = (
            rng.random_range(0..NAMES.len()),
            rng.random_range(0..VALUES.len()),
        );
        let op = match rng.random_range(0..3u8) {
            0 => Op::Add(n, v),
            1 => Op::Set(n, v),
            _ => Op::Remove(n),
        };
        apply(&mut h, &mut model, op);
    }
    (h, model)
}

/// `Headers` built through different `set`/`remove` histories hold the
/// pairs a plain list replaying the same calls holds, and compare equal
/// exactly when those pairs do.
#[test]
fn headers_compare_equal_exactly_when_their_pairs_do() {
    let mut rng = StdRng::seed_from_u64(0x1A_7E57);
    let mut equal = 0;
    for case in 0..512 {
        let (a, model_a) = random_history(&mut rng);
        let (b, model_b) = random_history(&mut rng);
        let pairs = |h: &Headers| -> Vec<(String, String)> {
            h.iter()
                .map(|(n, v)| (n.to_owned(), v.to_owned()))
                .collect()
        };
        assert_eq!(pairs(&a), model_a, "case {case}");
        assert_eq!(a.len(), model_a.len());
        assert_eq!(a == b, model_a == model_b, "case {case}: {a:?} vs {b:?}");
        equal += usize::from(a == b);
        // The same pairs added afresh, with no history, compare equal.
        let mut fresh = Headers::new();
        for (n, v) in &model_a {
            fresh.add(n, v);
        }
        assert_eq!(fresh, a, "case {case}");
        assert_eq!(fresh.wire_len(), a.wire_len());
    }
    assert!(equal > 0, "no two histories met on the same pairs");
}

#[test]
fn truncated_requests_never_parse_as_complete() {
    let mut rng = StdRng::seed_from_u64(0x13_7E57);
    for _case in 0..192 {
        let mut body = random_body(&mut rng, 256);
        if body.is_empty() {
            body.push(0);
        }
        let cut_fraction = rng.random_range(0.1f64..0.95);
        let req = Request::post("/submit", body);
        let mut wire = Vec::new();
        write_request(&mut wire, &req).unwrap();
        let cut = ((wire.len() as f64) * cut_fraction) as usize;
        let truncated = &wire[..cut.min(wire.len() - 1)];
        // Either a clean parse error or a connection-closed error; never a
        // silently wrong message.
        if let Ok(parsed) = read_request(&mut BufReader::new(truncated)) {
            assert_eq!(parsed.body, req.body, "complete parse must be exact");
        }
    }
}

#[test]
fn percent_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x14_7E57);
    let printable: Vec<u8> = (0x20u8..=0x7e).collect();
    for _case in 0..192 {
        let len = rng.random_range(0..60usize);
        let s = random_from(&mut rng, &printable, len);
        assert_eq!(percent_decode(&percent_encode(&s)), s);
    }
}

#[test]
fn invalid_utf8_escapes_decode_to_the_replacement_character() {
    assert_eq!(percent_decode("%FF"), "\u{FFFD}");
    assert_eq!(percent_decode("a%FFb%20c"), "a\u{FFFD}b c");
    assert_eq!(percent_decode("%C3%BC"), "ü");
}

#[test]
fn uri_canonicalization_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x15_7E57);
    for _case in 0..192 {
        let t = random_target(&mut rng);
        let u1 = Uri::parse(&t);
        let u2 = Uri::parse(&u1.to_target());
        assert_eq!(u1.path, u2.path);
        assert_eq!(u1.params, u2.params);
    }
}

#[test]
fn garbage_never_panics_the_parser() {
    let mut rng = StdRng::seed_from_u64(0x16_7E57);
    for _case in 0..192 {
        let bytes = random_body(&mut rng, 256);
        let _ = read_request(&mut BufReader::new(&bytes[..]));
        let _ = read_response(&mut BufReader::new(&bytes[..]));
    }
}
