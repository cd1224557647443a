//! Cluster wire frames: the message family spoken between DPC nodes.
//!
//! The single-node design needs no proxy-bound messages at all — the shared
//! integer `dpcKey` is the whole coherence protocol, and the ring keeps it
//! that way: invalidations reach every member inside the update itself.
//! One cluster-tier operation does need a wire format, and it runs
//! proxy-to-proxy, never origin-to-proxy:
//!
//! * **Peer fetch** — after a membership change, a node that owns a key
//!   range it has never served pulls fragment slots lazily from the previous
//!   owner instead of round-tripping to the origin
//!   ([`ClusterFrame::FetchReq`] / [`ClusterFrame::FetchResp`]).
//!
//! Framing is deliberately dumb: one `u32` length prefix, one tag byte,
//! then fixed-width little-endian fields and length-prefixed byte strings.
//! Every length is bounded before allocation so a corrupt or hostile peer
//! cannot balloon memory ([`MAX_FRAME_BYTES`]).

use std::io::{self, Read, Write};

/// Upper bound on one encoded frame (16 MiB): larger than any fragment the
/// testbed produces, small enough that a corrupt length prefix fails fast.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// The proxy-to-proxy message family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterFrame {
    /// Ask a peer for the content of one fragment slot.
    FetchReq {
        /// Raw dpcKey (slot index) being requested.
        key: u32,
        /// Requester's span-tracing context as `(trace id, span id)`, so
        /// the donor's serve span stitches into the same trace. Optional
        /// trailing field: a traceless request omits it entirely.
        trace: Option<(u64, u64)>,
    },
    /// Answer to [`ClusterFrame::FetchReq`]. `hit == false` means the peer's
    /// slot is empty (or it refused); `body` is then empty.
    FetchResp {
        hit: bool,
        body: Vec<u8>,
        /// Donor's `(trace id, serve span id)` echo — optional trailing
        /// field, same rule as on the request.
        trace: Option<(u64, u64)>,
    },
}

const TAG_FETCH_REQ: u8 = 1;
const TAG_FETCH_RESP: u8 = 2;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// Optional trailing trace context: 16 bytes when present, nothing at all
/// when absent.
fn put_trace(buf: &mut Vec<u8>, trace: &Option<(u64, u64)>) {
    if let Some((tid, sid)) = trace {
        put_u64(buf, *tid);
        put_u64(buf, *sid);
    }
}

/// Bounded cursor over a decoded frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The next `n` bytes, borrowed. A claimed length is checked against
    /// the bytes actually left, so a hostile length never allocates.
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cluster frame truncated",
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Remaining undecoded bytes — the hard ceiling for any claimed length.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the optional trailing trace context. The claimed length is
    /// the *remaining byte count itself*, so the hostile-length rule
    /// stays airtight: exactly 16 bytes left → `Some`, exactly 0 →
    /// `None`, anything else is a malformed frame.
    fn trace(&mut self) -> io::Result<Option<(u64, u64)>> {
        match self.remaining() {
            0 => Ok(None),
            16 => Ok(Some((self.u64()?, self.u64()?))),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes are not a trace context",
            )),
        }
    }
}

impl ClusterFrame {
    /// Encode into `length ++ body` wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        match self {
            ClusterFrame::FetchReq { key, trace } => {
                body.push(TAG_FETCH_REQ);
                put_u32(&mut body, *key);
                put_trace(&mut body, trace);
            }
            ClusterFrame::FetchResp {
                hit,
                body: b,
                trace,
            } => {
                body.push(TAG_FETCH_RESP);
                body.push(u8::from(*hit));
                put_bytes(&mut body, b);
                put_trace(&mut body, trace);
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        out
    }

    /// Write one frame to `w` (single `write_all`, so concurrent writers on
    /// distinct streams never interleave partial frames).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Read one frame from `r`. Returns `Ok(None)` on clean EOF at a frame
    /// boundary (the peer closed between frames).
    pub fn read_from(r: &mut impl Read) -> io::Result<Option<ClusterFrame>> {
        let mut len_buf = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            let n = r.read(&mut len_buf[got..])?;
            if n == 0 {
                if got == 0 {
                    return Ok(None); // clean EOF between frames
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                ));
            }
            got += n;
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cluster frame length {len} out of bounds"),
            ));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        Self::decode_body(&body).map(Some)
    }

    /// Decode one frame body. The trailing trace context is each
    /// variant's last field and claims every byte left, so a decoded
    /// frame has consumed its body exactly.
    fn decode_body(body: &[u8]) -> io::Result<ClusterFrame> {
        let mut c = Cursor { buf: body, pos: 0 };
        match c.u8()? {
            TAG_FETCH_REQ => Ok(ClusterFrame::FetchReq {
                key: c.u32()?,
                trace: c.trace()?,
            }),
            TAG_FETCH_RESP => {
                let hit = c.u8()? != 0;
                let body = c.bytes()?.to_vec();
                let trace = c.trace()?;
                Ok(ClusterFrame::FetchResp { hit, body, trace })
            }
            tag => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown cluster frame tag {tag}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: ClusterFrame) {
        let bytes = frame.encode();
        let mut r = &bytes[..];
        let back = ClusterFrame::read_from(&mut r).unwrap().unwrap();
        assert_eq!(back, frame);
        assert!(r.is_empty(), "frame must consume exactly its bytes");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(ClusterFrame::FetchReq {
            key: 0,
            trace: None,
        });
        roundtrip(ClusterFrame::FetchReq {
            key: u32::MAX,
            trace: Some((0xfeed_f00d, 42)),
        });
        roundtrip(ClusterFrame::FetchResp {
            hit: true,
            body: b"<nav>hello</nav>".to_vec(),
            trace: Some((7, u64::MAX)),
        });
        roundtrip(ClusterFrame::FetchResp {
            hit: false,
            body: Vec::new(),
            trace: None,
        });
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let a = ClusterFrame::FetchReq {
            key: 5,
            trace: None,
        };
        let b = ClusterFrame::FetchResp {
            hit: true,
            body: vec![1, 2, 3],
            trace: Some((9, 11)),
        };
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        let mut r = &wire[..];
        assert_eq!(ClusterFrame::read_from(&mut r).unwrap().unwrap(), a);
        assert_eq!(ClusterFrame::read_from(&mut r).unwrap().unwrap(), b);
        assert_eq!(ClusterFrame::read_from(&mut r).unwrap(), None);
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let mut empty: &[u8] = &[];
        assert_eq!(ClusterFrame::read_from(&mut empty).unwrap(), None);
        let bytes = ClusterFrame::FetchReq {
            key: 1,
            trace: None,
        }
        .encode();
        let mut truncated = &bytes[..bytes.len() - 1];
        assert!(ClusterFrame::read_from(&mut truncated).is_err());
        let mut half_length = &bytes[..2];
        assert!(ClusterFrame::read_from(&mut half_length).is_err());
    }

    /// Frame `body` behind its `u32` length prefix.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        wire
    }

    #[test]
    fn old_peer_frames_without_trace_field_still_decode() {
        // Hand-encode the traceless wire layout (no trailing 16 bytes):
        // FetchReq/FetchResp must decode as `trace: None`.
        let mut body = vec![TAG_FETCH_REQ];
        body.extend_from_slice(&7u32.to_le_bytes());
        assert_eq!(
            ClusterFrame::read_from(&mut &framed(&body)[..])
                .unwrap()
                .unwrap(),
            ClusterFrame::FetchReq {
                key: 7,
                trace: None,
            }
        );

        let mut body = vec![TAG_FETCH_RESP, 1];
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(b"abc");
        assert_eq!(
            ClusterFrame::read_from(&mut &framed(&body)[..])
                .unwrap()
                .unwrap(),
            ClusterFrame::FetchResp {
                hit: true,
                body: b"abc".to_vec(),
                trace: None,
            }
        );
    }

    #[test]
    fn traceless_new_frames_match_old_wire_layout() {
        // A node sending `trace: None` puts exactly the traceless bytes on
        // the wire.
        let wire = ClusterFrame::FetchReq {
            key: 7,
            trace: None,
        }
        .encode();
        let mut expected = vec![TAG_FETCH_REQ];
        expected.extend_from_slice(&7u32.to_le_bytes());
        assert_eq!(wire, framed(&expected));
    }

    #[test]
    fn partial_trace_field_rejected() {
        // 8 trailing bytes is neither "absent" (0) nor a full context
        // (16): the hostile-length rule rejects it instead of guessing.
        let mut body = vec![TAG_FETCH_REQ];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes()); // half a context
        assert!(ClusterFrame::read_from(&mut &framed(&body)[..]).is_err());
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = ClusterFrame::read_from(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_rejected() {
        assert!(ClusterFrame::read_from(&mut &framed(&[99])[..]).is_err());

        let mut body = vec![TAG_FETCH_REQ];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.push(0xAB); // trailing garbage
        assert!(ClusterFrame::read_from(&mut &framed(&body)[..]).is_err());
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A FetchResp claiming a 2 GiB body in a small frame.
        let mut body = vec![TAG_FETCH_RESP, 1];
        body.extend_from_slice(&(1u32 << 31).to_le_bytes());
        assert!(ClusterFrame::read_from(&mut &framed(&body)[..]).is_err());
    }

    #[test]
    fn hostile_counts_cannot_amplify_small_frames() {
        // A body length that fits inside the raw frame length but claims
        // more bytes than follow must be rejected before any copy.
        let padding = 1000usize;
        let mut body = vec![TAG_FETCH_RESP, 1];
        body.extend_from_slice(&(padding as u32).to_le_bytes()); // claims 1000 B
        body.extend_from_slice(&vec![0u8; padding / 2]); // but only 500 B follow
        assert!(ClusterFrame::read_from(&mut &framed(&body)[..]).is_err());
    }
}
