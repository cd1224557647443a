//! The template instruction grammar shared by BEM (writer) and DPC
//! (scanner).
//!
//! A BEM-instrumented response body ("page template") is a byte stream
//! interleaving literal HTML with cache instructions. Instructions are
//! framed by a sentinel byte `0x01` and a terminator `0x02` — bytes that
//! cannot appear in text/HTML output, and that are *escaped* when they do
//! appear in literal content (`0x01` is doubled). `SET` bodies are
//! length-prefixed, so fragment content is carried verbatim with no
//! escaping and no re-scanning cost.
//!
//! ```text
//! template  := preamble item*
//! preamble  := 0x01 'V' version-digits 0x02
//! item      := literal-byte | escaped-sentinel | get | set
//! escaped   := 0x01 0x01                      (a literal 0x01 byte)
//! get       := 0x01 'G' key-digits '.' gen-digits 0x02
//! set       := 0x01 'S' key-digits '.' gen-digits ':' len-digits 0x02
//!              <len content bytes>
//!              0x01 'E' key-digits 0x02
//! ```
//!
//! Keys and lengths are at most 10 digits, and a key fits a `u32`. The
//! *generation* `gen` is the sequence number of the fragment's directory
//! entry, one directory-wide counter, so it only grows for a given key: a
//! slot filled by `SET k.g` serves `GET k.g` and no other `GET k`, and a
//! late `SET` of an older generation does not overwrite a newer one. It is
//! at most 20 digits and is read with checked arithmetic, so a value above
//! `u64::MAX` is malformed rather than wrapped.
//!
//! Tag sizes are ~6–16 bytes, near the paper's modelled tag size
//! `g ≈ 10`. The close tag on `SET` costs a second `g`, which is exactly
//! why the analytical response size charges `s_e + 2g` on a miss and a
//! single `g` on a hit.

use crate::error::AssembleError;
use crate::key::DpcKey;

/// Sentinel byte introducing every instruction.
pub const SENTINEL: u8 = 0x01;
/// Terminator byte ending every instruction head.
pub const TERM: u8 = 0x02;
/// Grammar version carried in the preamble.
pub const VERSION: u32 = 2;

/// Maximum digits accepted for keys and lengths (u32::MAX has 10 digits).
const MAX_DIGITS: usize = 10;
/// Maximum digits accepted for a generation (u64::MAX has 20 digits).
const MAX_GEN_DIGITS: usize = 20;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Append the template preamble marking an instrumented response.
pub fn write_preamble(buf: &mut Vec<u8>) {
    buf.push(SENTINEL);
    buf.push(b'V');
    push_decimal(buf, VERSION as u64);
    buf.push(TERM);
}

/// Append a `GET key.gen` instruction.
pub fn write_get(buf: &mut Vec<u8>, key: DpcKey, gen: u64) {
    buf.push(SENTINEL);
    buf.push(b'G');
    push_decimal(buf, key.0 as u64);
    buf.push(b'.');
    push_decimal(buf, gen);
    buf.push(TERM);
}

/// Append a `SET key.gen` instruction carrying `content`.
pub fn write_set(buf: &mut Vec<u8>, key: DpcKey, gen: u64, content: &[u8]) {
    buf.push(SENTINEL);
    buf.push(b'S');
    push_decimal(buf, key.0 as u64);
    buf.push(b'.');
    push_decimal(buf, gen);
    buf.push(b':');
    push_decimal(buf, content.len() as u64);
    buf.push(TERM);
    buf.extend_from_slice(content);
    buf.push(SENTINEL);
    buf.push(b'E');
    push_decimal(buf, key.0 as u64);
    buf.push(TERM);
}

/// Append literal bytes, escaping embedded sentinel bytes.
pub fn write_literal(buf: &mut Vec<u8>, content: &[u8]) {
    let mut rest = content;
    while let Some(pos) = rest.iter().position(|&b| b == SENTINEL) {
        buf.extend_from_slice(&rest[..pos]);
        buf.push(SENTINEL);
        buf.push(SENTINEL); // escape: doubled sentinel
        rest = &rest[pos + 1..];
    }
    buf.extend_from_slice(rest);
}

/// Serialized size of a `GET` tag for `key.gen` (the measured `g`).
pub fn get_tag_len(key: DpcKey, gen: u64) -> usize {
    4 + decimal_len(key.0 as u64) + decimal_len(gen)
}

/// Serialized overhead of a `SET` tag pair for `key.gen` carrying `len`
/// bytes (excludes the content itself) — the measured `2g`.
pub fn set_tag_overhead(key: DpcKey, gen: u64, len: usize) -> usize {
    // open: 0x01 'S' key '.' gen ':' len 0x02   close: 0x01 'E' key 0x02
    5 + decimal_len(key.0 as u64)
        + decimal_len(gen)
        + decimal_len(len as u64)
        + 3
        + decimal_len(key.0 as u64)
}

fn push_decimal(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

fn decimal_len(v: u64) -> usize {
    let mut n = 1;
    let mut v = v / 10;
    while v > 0 {
        n += 1;
        v /= 10;
    }
    n
}

// ---------------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------------

/// One parsed template item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op<'a> {
    /// Raw bytes to copy into the page (already unescaped).
    Literal(&'a [u8]),
    /// Splice the fragment stored under `key`, which must be generation
    /// `gen`.
    Get { key: DpcKey, gen: u64 },
    /// Store `content` under `key` as generation `gen` and also include it
    /// in the page.
    Set {
        key: DpcKey,
        gen: u64,
        content: &'a [u8],
    },
}

/// True when `body` begins with a valid template preamble — the proxy's
/// cheap test for "is this response instrumented, or plain HTML to forward
/// as-is".
pub fn is_instrumented(body: &[u8]) -> bool {
    parse_preamble(body).is_some()
}

/// Parse the preamble; returns (version, bytes consumed).
fn parse_preamble(body: &[u8]) -> Option<(u32, usize)> {
    if body.len() < 4 || body[0] != SENTINEL || body[1] != b'V' {
        return None;
    }
    let (v, used) = parse_decimal(&body[2..], MAX_DIGITS)?;
    let end = 2 + used;
    if body.get(end) != Some(&TERM) {
        return None;
    }
    Some((v as u32, end + 1))
}

/// Parse a run of at most `max_digits` decimal digits; `None` when there
/// is none, when it is longer, or when its value does not fit a `u64`.
fn parse_decimal(bytes: &[u8], max_digits: usize) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    let mut used = 0;
    for &b in bytes.iter().take(max_digits + 1) {
        match b {
            b'0'..=b'9' => {
                if used == max_digits {
                    return None; // too many digits
                }
                v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
                used += 1;
            }
            _ => break,
        }
    }
    if used == 0 {
        None
    } else {
        Some((v, used))
    }
}

/// Streaming scanner over a template body.
///
/// Yields [`Op`]s in order; the assembler (or any other consumer, e.g. the
/// byte-accounting benches) folds over them in a single linear pass, as the
/// paper's cost model assumes.
pub struct Scanner<'a> {
    body: &'a [u8],
    pos: usize,
    /// Grammar version from the preamble.
    pub version: u32,
}

impl<'a> Scanner<'a> {
    /// Create a scanner; `None` when `body` lacks the preamble (i.e. the
    /// response is not instrumented).
    pub fn new(body: &'a [u8]) -> Option<Scanner<'a>> {
        let (version, consumed) = parse_preamble(body)?;
        Some(Scanner {
            body,
            pos: consumed,
            version,
        })
    }

    fn err(&self, reason: &'static str) -> AssembleError {
        AssembleError::Malformed {
            offset: self.pos,
            reason,
        }
    }

    /// Parse `key '.' gen` at `at`; returns the key, the generation and
    /// the offset just past them.
    fn key_gen(&self, at: usize) -> Result<(DpcKey, u64, usize), AssembleError> {
        let body = self.body;
        let (key, used) =
            parse_decimal(&body[at..], MAX_DIGITS).ok_or_else(|| self.err("bad key"))?;
        let key = u32::try_from(key).map_err(|_| self.err("key exceeds u32"))?;
        let dot = at + used;
        if body.get(dot) != Some(&b'.') {
            return Err(self.err("missing generation"));
        }
        let (gen, used) = parse_decimal(&body[dot + 1..], MAX_GEN_DIGITS)
            .ok_or_else(|| self.err("bad generation"))?;
        Ok((DpcKey(key), gen, dot + 1 + used))
    }

    /// Next operation, or `Ok(None)` at end of template.
    #[allow(clippy::should_implement_trait)] // fallible iterator
    pub fn next(&mut self) -> Result<Option<Op<'a>>, AssembleError> {
        let body = self.body;
        if self.pos >= body.len() {
            return Ok(None);
        }
        // Fast path: a run of literal bytes up to the next sentinel.
        if body[self.pos] != SENTINEL {
            let start = self.pos;
            let end = body[start..]
                .iter()
                .position(|&b| b == SENTINEL)
                .map(|p| start + p)
                .unwrap_or(body.len());
            self.pos = end;
            return Ok(Some(Op::Literal(&body[start..end])));
        }
        // At a sentinel: decode the instruction.
        let Some(&kind) = body.get(self.pos + 1) else {
            return Err(self.err("dangling sentinel at end of template"));
        };
        match kind {
            SENTINEL => {
                // Escaped literal 0x01.
                self.pos += 2;
                Ok(Some(Op::Literal(&body[self.pos - 1..self.pos])))
            }
            b'G' => {
                let (key, gen, end) = self.key_gen(self.pos + 2)?;
                if body.get(end) != Some(&TERM) {
                    return Err(self.err("unterminated GET"));
                }
                self.pos = end + 1;
                Ok(Some(Op::Get { key, gen }))
            }
            b'S' => {
                let (key, gen, mut cursor) = self.key_gen(self.pos + 2)?;
                if body.get(cursor) != Some(&b':') {
                    return Err(self.err("SET missing length separator"));
                }
                cursor += 1;
                let (len, used) = parse_decimal(&body[cursor..], MAX_DIGITS)
                    .ok_or_else(|| self.err("bad SET length"))?;
                cursor += used;
                if body.get(cursor) != Some(&TERM) {
                    return Err(self.err("unterminated SET head"));
                }
                cursor += 1;
                let len = len as usize;
                if cursor + len > body.len() {
                    return Err(AssembleError::TruncatedSet { key, declared: len });
                }
                let content = &body[cursor..cursor + len];
                cursor += len;
                // Close tag: 0x01 'E' key 0x02, must echo the key.
                if body.get(cursor) != Some(&SENTINEL) || body.get(cursor + 1) != Some(&b'E') {
                    return Err(AssembleError::MismatchedSetClose { expected: key });
                }
                let (ckey, used) = parse_decimal(&body[cursor + 2..], MAX_DIGITS)
                    .ok_or(AssembleError::MismatchedSetClose { expected: key })?;
                if ckey != u64::from(key.0) || body.get(cursor + 2 + used) != Some(&TERM) {
                    return Err(AssembleError::MismatchedSetClose { expected: key });
                }
                self.pos = cursor + 2 + used + 1;
                Ok(Some(Op::Set { key, gen, content }))
            }
            b'V' => Err(self.err("preamble repeated mid-template")),
            _ => Err(self.err("unknown instruction")),
        }
    }

    /// Collect all remaining ops (convenience for tests and benches).
    pub fn collect_ops(mut self) -> Result<Vec<Op<'a>>, AssembleError> {
        let mut ops = Vec::new();
        while let Some(op) = self.next()? {
            ops.push(op);
        }
        Ok(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template(build: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut buf = Vec::new();
        write_preamble(&mut buf);
        build(&mut buf);
        buf
    }

    #[test]
    fn preamble_detection() {
        let t = template(|_| {});
        assert!(is_instrumented(&t));
        assert!(!is_instrumented(b"<html>plain</html>"));
        assert!(!is_instrumented(b""));
        assert!(!is_instrumented(&[SENTINEL]));
        assert!(!is_instrumented(&[SENTINEL, b'V']));
    }

    #[test]
    fn scan_literal_only() {
        let t = template(|b| write_literal(b, b"hello world"));
        let ops = Scanner::new(&t).unwrap().collect_ops().unwrap();
        assert_eq!(ops, vec![Op::Literal(b"hello world")]);
    }

    #[test]
    fn scan_get_set_mix() {
        let t = template(|b| {
            write_literal(b, b"<html>");
            write_get(b, DpcKey(5), 7);
            write_literal(b, b"<hr>");
            write_set(b, DpcKey(123), 8, b"fresh content");
            write_literal(b, b"</html>");
        });
        let ops = Scanner::new(&t).unwrap().collect_ops().unwrap();
        assert_eq!(
            ops,
            vec![
                Op::Literal(b"<html>"),
                Op::Get {
                    key: DpcKey(5),
                    gen: 7
                },
                Op::Literal(b"<hr>"),
                Op::Set {
                    key: DpcKey(123),
                    gen: 8,
                    content: b"fresh content"
                },
                Op::Literal(b"</html>"),
            ]
        );
    }

    #[test]
    fn literal_sentinel_escaping_roundtrip() {
        let nasty = [b'a', SENTINEL, b'b', SENTINEL, SENTINEL, TERM, b'c'];
        let t = template(|b| write_literal(b, &nasty));
        let ops = Scanner::new(&t).unwrap().collect_ops().unwrap();
        let mut rebuilt = Vec::new();
        for op in ops {
            match op {
                Op::Literal(l) => rebuilt.extend_from_slice(l),
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert_eq!(rebuilt, nasty);
    }

    #[test]
    fn set_content_carries_arbitrary_bytes_unescaped() {
        // SET bodies are length-prefixed, so even instruction-like bytes
        // inside fragment content must come through verbatim.
        let mut evil = Vec::new();
        evil.push(SENTINEL);
        evil.extend_from_slice(b"G99");
        evil.push(TERM);
        evil.push(SENTINEL);
        let t = template(|b| write_set(b, DpcKey(1), 1, &evil));
        let ops = Scanner::new(&t).unwrap().collect_ops().unwrap();
        assert_eq!(
            ops,
            vec![Op::Set {
                key: DpcKey(1),
                gen: 1,
                content: &evil[..]
            }]
        );
    }

    #[test]
    fn truncated_set_is_reported() {
        let mut t = template(|b| write_set(b, DpcKey(2), 3, b"0123456789"));
        t.truncate(t.len() - 8); // chop into the content (and lose the close tag)
        let mut s = Scanner::new(&t).unwrap();
        let err = loop {
            match s.next() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("expected error"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, AssembleError::TruncatedSet { .. }));
    }

    #[test]
    fn mismatched_close_is_reported() {
        let mut t = Vec::new();
        write_preamble(&mut t);
        // Hand-build a SET whose close tag names the wrong key.
        t.extend_from_slice(&[SENTINEL, b'S', b'7', b'.', b'1', b':', b'2', TERM]);
        t.extend_from_slice(b"ab");
        t.extend_from_slice(&[SENTINEL, b'E', b'8', TERM]);
        let mut s = Scanner::new(&t).unwrap();
        assert!(matches!(
            s.next(),
            Err(AssembleError::MismatchedSetClose {
                expected: DpcKey(7)
            })
        ));
    }

    #[test]
    fn unknown_instruction_is_malformed() {
        let mut t = Vec::new();
        write_preamble(&mut t);
        t.extend_from_slice(&[SENTINEL, b'Q', TERM]);
        let mut s = Scanner::new(&t).unwrap();
        assert!(matches!(s.next(), Err(AssembleError::Malformed { .. })));
    }

    #[test]
    fn dangling_sentinel_is_malformed() {
        let mut t = Vec::new();
        write_preamble(&mut t);
        t.push(SENTINEL);
        let mut s = Scanner::new(&t).unwrap();
        assert!(matches!(s.next(), Err(AssembleError::Malformed { .. })));
    }

    /// Generations of every digit count from 1 to 20.
    fn generations() -> impl Iterator<Item = u64> {
        (0..20u32)
            .map(|d| 10u64.pow(d))
            .chain([9, 99_999, u64::MAX])
    }

    #[test]
    fn tag_length_helpers_match_serialization() {
        for gen in generations() {
            for key in [0u32, 7, 99, 12345, u32::MAX] {
                let mut buf = Vec::new();
                write_get(&mut buf, DpcKey(key), gen);
                assert_eq!(buf.len(), get_tag_len(DpcKey(key), gen), "key {key}.{gen}");
            }
            for (key, len) in [(0u32, 0usize), (12, 1024), (999_999, 5)] {
                let mut buf = Vec::new();
                write_set(&mut buf, DpcKey(key), gen, &vec![b'x'; len]);
                assert_eq!(
                    buf.len() - len,
                    set_tag_overhead(DpcKey(key), gen, len),
                    "key {key}.{gen} len {len}"
                );
            }
        }
    }

    #[test]
    fn tag_sizes_are_near_model_g() {
        // Table 2 models g = 10 bytes; our real GET tags for keys and
        // generations up to 4 digits each are 6–12 bytes and SET pairs
        // for lengths up to 4 digits 12–24, so one g averages ~12.
        assert!(get_tag_len(DpcKey(1234), 1234) <= 12);
        assert!(set_tag_overhead(DpcKey(1234), 1234, 1024) <= 24);
    }

    #[test]
    fn key_with_max_digits_roundtrips() {
        let t = template(|b| write_get(b, DpcKey(u32::MAX), u64::MAX));
        let ops = Scanner::new(&t).unwrap().collect_ops().unwrap();
        assert_eq!(
            ops,
            vec![Op::Get {
                key: DpcKey(u32::MAX),
                gen: u64::MAX
            }]
        );
    }

    /// A template whose one instruction is `0x01 head 0x02`.
    fn one_tag(head: &[u8]) -> Vec<u8> {
        template(|t| {
            t.push(SENTINEL);
            t.extend_from_slice(head);
            t.push(TERM);
        })
    }

    #[test]
    fn generation_digits_are_untrusted() {
        for head in [
            // A version-1 tag names no generation.
            &b"G7"[..],
            b"S7:0",
            b"G7.",
            // One above u64::MAX, and 21 digits.
            b"G7.18446744073709551616",
            b"S7.18446744073709551616:0",
            b"G7.100000000000000000000",
            b"G7.000000000000000000001",
        ] {
            let t = one_tag(head);
            let op = Scanner::new(&t).unwrap().next();
            assert!(
                matches!(op, Err(AssembleError::Malformed { .. })),
                "{}: {op:?}",
                String::from_utf8_lossy(head)
            );
        }
        // u64::MAX itself is a generation.
        let t = one_tag(b"G7.18446744073709551615");
        assert_eq!(
            Scanner::new(&t).unwrap().next(),
            Ok(Some(Op::Get {
                key: DpcKey(7),
                gen: u64::MAX
            }))
        );
    }

    #[test]
    fn empty_set_content() {
        let t = template(|b| write_set(b, DpcKey(3), 4, b""));
        let ops = Scanner::new(&t).unwrap().collect_ops().unwrap();
        assert_eq!(
            ops,
            vec![Op::Set {
                key: DpcKey(3),
                gen: 4,
                content: b""
            }]
        );
    }
}
